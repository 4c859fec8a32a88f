"""Layered regenerating codes over finite fields.

Construction, exact multi-node repair, data reconstruction, and the exact
storage-bandwidth achievability region for centralized repair.
"""

from .bandwidth import (
    BandwidthReport,
    beta_closed_form_d_eq_k,
    beta_formula,
    beta_layered_naive_e1,
    beta_oracle,
    beta_steiner_e2,
    rho,
)
from .designs import (
    BlockDesign,
    DesignStats,
    bundled_design,
    bundled_design_names,
    complete_design,
    design_stats,
    load_design,
    parse_design,
    serialize_design,
    verify_steiner,
)
from .errors import IntegrityError, ValidationError
from .extfield import BinaryExtensionField, extension_field
from .gf import BinaryField, binary_field
from .layered import (
    LayeredCode,
    NodeContents,
    SystemParams,
    build_code,
    node_contents_from_text,
    node_contents_to_text,
)
from .mds import MdsCodec, mds_codec
from .precoded import (
    PrecodedCode,
    build_precoded,
    linearized_eval,
    linearized_precode,
    rank_oracle,
)
from .tradeoff import (
    BoundParams,
    Region,
    TradeoffPoint,
    achievable_point_c1,
    achievable_points_c1,
    achievable_points_general,
    compare_points,
    corner_points,
    functional_bound_check,
    hull_oracle,
    k_threshold,
    mbcr_point,
    msmr_point,
    p_max,
    p_star,
    slope_c1,
)

__version__ = "0.1.0"

# every class and function imported above from the package's own modules
__all__ = [
    name for name, obj in list(globals().items())
    if getattr(obj, "__module__", "").startswith(__name__ + ".")
] + ["__version__"]
