"""The package's ten record classes: no field can be assigned or deleted, keyword and
positional construction agree, and the five that check their values refuse a bad one from
every constructor they offer."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from regencodes import IntegrityError, ValidationError, binary_field
from regencodes.bandwidth import BandwidthReport
from regencodes.designs import BlockDesign, DesignStats, complete_design
from regencodes.layered import NodeContents, SystemParams
from regencodes.mds import MdsCodec
from regencodes.precoded import PrecodedCode, build_precoded
from regencodes.tradeoff import BoundParams, Region, TradeoffPoint, corner_points

PRECODED = build_precoded(n=5, k=3, d=4, e=1, m=1, r=2)
REGION = corner_points(k=4, e=2)

# (class, the fields of a valid record in order, None or (field, bad value, error, message))
RECORDS = [
    (BandwidthReport, dict(failed=(1,), helpers=(2, 3), msmr={2: Fraction(1, 2)}, naive=None,
                           layered_naive=None), None),
    (BlockDesign, dict(n=3, r=2, t=2, blocks=((1, 2), (1, 3), (2, 3))),
     ("blocks", ((1, 4),), ValidationError, "block (1, 4) has points outside 1..3")),
    (DesignStats, dict(N=3, alpha=2, lambda2=1, lambda3=0), None),
    (SystemParams, dict(n=5, k=4, d=4, e=1, m=1, r=3, t=3),
     ("d", 5, ValidationError, "need k <= d <= n - e, got k=4 d=5 n-e=4")),
    (NodeContents, dict(node=1, symbols=b"\x01\x02"), None),
    (MdsCodec, dict(field=binary_field(8), length=3, dimension=2, points=(0, 1, 2)),
     ("points", (0, 1, 1), ValidationError, "evaluation points must be distinct")),
    (PrecodedCode, {name: getattr(PRECODED, name) for name in (
        "n", "k", "d", "e", "m", "r", "field", "inner", "data_len", "subfield_codec")}, None),
    (TradeoffPoint, dict(alpha_bar=Fraction(1, 3), beta_bar=Fraction(1, 6), label="msmr",
                         r=None, m=None), None),
    (BoundParams, dict(k=3, d=4, e=1),
     ("e", 4, ValidationError, "need 1 <= e <= k <= d, got e=4 k=3 d=4")),
    (Region, dict(k=REGION.k, e=REGION.e, corners=REGION.corners, p_star=REGION.p_star),
     ("corners", REGION.corners[:1], IntegrityError,
      "a region needs at least its two extreme corners")),
]


@pytest.mark.parametrize("cls, fields, bad", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_records_are_read_only_and_every_constructor_checks(cls, fields, bad):
    record = cls(**fields)
    assert cls(*fields.values()) == record
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    if bad is None:
        return
    assert hash(record) == hash(cls(**fields)) and record != object()
    # keyword and positional calls are the only constructors a checking record offers
    assert not any(hasattr(cls, name) for name in ("_make", "_replace", "__replace__"))
    name, value, error, message = bad
    given = {**fields, name: value}
    for build in (lambda: cls(**given), lambda: cls(*given.values())):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()


def test_a_copy_runs_the_constructor_checks():
    d = complete_design(5, 3)
    for other in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert other == d and other._steiner is None
    params = SystemParams(n=5, k=4, d=4, e=1, m=1, r=3, t=3)
    assert copy.copy(params) == params and copy.copy(params) is not params
