import pickle

import pytest

from betweenu import errors
from betweenu.separation import FarkasCertificate

CERTIFICATE = FarkasCertificate(
    level=0.8,
    rows=({"lottery": [0.5, 0.0, 0.5], "class": "upper", "relation": ">=", "bound": 0.8,
           "weight": 1.0},),
    normalization_weights=(0.25, -0.75),
    residual=0.0,
    gap=0.01,
)

# Each error class with a full set of its context keywords.
CASES = [
    (errors.BetweenuError, {}),
    (errors.DegeneratePreference, {}),
    (errors.MembershipViolation, {}),
    (errors.NonMonotoneChord, {"row": (0.0, 0.5, 0.5)}),
    (errors.MultipleFixedPoints, {"row": (0.25, 0.75)}),
    (errors.NoCrossing, {"level": 0.25, "row": (0.5, 0.5)}),
    (errors.IterationLimit, {"what": "mixing", "iterations": 200, "level": 0.5, "row": (1.0, 0.0)}),
    (errors.Infeasible, {"level": 0.8, "certificate": CERTIFICATE}),
]


@pytest.mark.parametrize("cls, where", CASES, ids=[c.__name__ for c, _ in CASES])
class TestKeywordContext:
    def test_fields_are_exactly_the_context(self, cls, where):
        exc = cls("m", **where)
        assert str(exc) == "m" and exc.args == ("m",)
        assert tuple(where) == cls.fields
        assert vars(exc) == where

    def test_missing_context_is_none(self, cls, where):
        assert vars(cls("m")) == dict.fromkeys(cls.fields)

    def test_round_trips_through_pickle(self, cls, where):
        back = pickle.loads(pickle.dumps(cls("m", **where)))
        assert type(back) is cls
        assert str(back) == "m"
        assert vars(back) == where

    def test_unknown_keyword_raises_type_error(self, cls, where):
        with pytest.raises(TypeError, match="takes no context bogus"):
            cls("m", bogus=1, **where)
