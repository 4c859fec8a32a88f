"""Layered regenerating codes over finite fields.

Construction, exact multi-node repair, data reconstruction, and the exact
storage-bandwidth achievability region for centralized repair.

Each public name loads its module on first use (PEP 562), so `import
regencodes` loads no module of the package, and a command loads only the
modules it runs.
"""

__version__ = "0.1.0"

# each public name, by the module that defines it, in the order __all__ lists them
_EXPORTS = {
    "bandwidth": ("BandwidthReport", "beta_closed_form_d_eq_k", "beta_formula",
                  "beta_layered_naive_e1", "beta_oracle", "beta_steiner_e2", "rho"),
    "designs": ("BlockDesign", "DesignStats", "bundled_design", "bundled_design_names",
                "complete_design", "design_stats", "load_design", "parse_design",
                "serialize_design", "verify_steiner"),
    "errors": ("IntegrityError", "ValidationError"),
    "extfield": ("BinaryExtensionField", "extension_field"),
    "gf": ("BinaryField", "binary_field"),
    "layered": ("LayeredCode", "NodeContents", "SystemParams", "build_code",
                "node_contents_from_text", "node_contents_to_text"),
    "mds": ("MdsCodec", "mds_codec"),
    "precoded": ("PrecodedCode", "build_precoded", "linearized_eval", "linearized_precode",
                 "rank_oracle"),
    "tradeoff": ("BoundParams", "Region", "TradeoffPoint", "achievable_point_c1",
                 "achievable_points_c1", "achievable_points_general", "compare_points",
                 "corner_points", "functional_bound_check", "hull_oracle", "k_threshold",
                 "mbcr_point", "msmr_point", "p_max", "p_star", "slope_c1"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
