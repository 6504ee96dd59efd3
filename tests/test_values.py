"""The value classes behave as the frozen dataclasses they replace: the
same equality, hash, repr, pickling, size and refusal to assign."""

import dataclasses
import pickle
import sys

import pytest

from amoebadim.estimator import CrossCheckResult, ImplicitHypersurface, \
    Parametrization, RankEstimate
from amoebadim.polyhedral import SpanComplex
from amoebadim.rational_linalg import Subspace
from amoebadim.subspace_search import CandidateSet, NearActionReport

LINE = Subspace(2, ((1, 2),))
AXES = [Subspace(2, ((0, 1),)), Subspace(2, ((1, 0),))]  # canonical order

# (value, its constructor arguments, fields left out of equality, fields
# the dataclass kept in slots beyond the constructor's)
VALUES = {
    "Subspace": (LINE, (2, ((1, 2),)), (), ("_hash", "_pivots")),
    "SpanComplex": (SpanComplex(2, AXES, ["x", None]),
                    (2, tuple(AXES), ("x", None)), ("labels",), ()),
    "CandidateSet": (CandidateSet((Subspace.zero(2), LINE), True),
                     ((Subspace.zero(2), LINE), True), (), None),
    "NearActionReport": (NearActionReport(True, 1, 2, LINE, True),
                         (True, 1, 2, LINE, True), (), None),
    "Parametrization": (
        Parametrization(1, 2, [[(1, (1,))], [(2j, (-1,))]]),
        (1, 2, (((1 + 0j, (1,)),), ((2j, (-1,)),))), (), None),
    "ImplicitHypersurface": (
        ImplicitHypersurface(2, [(1, (1, 0)), (-1, (0, 0))]),
        (2, ((1 + 0j, (1, 0)), (-1 + 0j, (0, 0)))), (), None),
    "RankEstimate": (RankEstimate(1, 2, 3.5, (1, 1), 2, (3.5, 4.0)),
                     (1, 2, 3.5, (1, 1), 2, (3.5, 4.0)),
                     ("per_sample_gaps",), None),
    "CrossCheckResult": (CrossCheckResult(3, 3, True, "agree"),
                         (3, 3, True, "agree"), (), None),
}


def twin(value, args, loose, extra_slots):
    """A frozen dataclass with the class's name and fields, declared as
    the package declared it before; `extra_slots` None means no slots."""
    fields = [(name, object, dataclasses.field(compare=name not in loose))
              for name in value._fields]
    fields += [(name, object, dataclasses.field(
        default=None, init=False, repr=False, compare=False))
        for name in extra_slots or ()]
    cls = dataclasses.make_dataclass(type(value).__name__, fields,
                                     frozen=True,
                                     slots=extra_slots is not None)
    return cls(*args)


@pytest.mark.parametrize("name", VALUES)
class TestLikeTheDataclass:
    def test_fields_repr_hash_and_size(self, name):
        value, args, loose, extra = VALUES[name]
        ref = twin(value, args, loose, extra)
        assert repr(value) == repr(ref)
        assert hash(value) == hash(ref)
        assert sys.getsizeof(value) == sys.getsizeof(ref)
        assert hasattr(value, "__dict__") == hasattr(ref, "__dict__")
        assert hasattr(value, "__weakref__") == hasattr(ref, "__weakref__")

    def test_equality(self, name):
        value, args, loose, extra = VALUES[name]
        assert value == type(value)(*args)
        assert value != twin(value, args, loose, extra)
        for i, field in enumerate(value._fields):
            if field in loose:
                # a field left out of equality and the hash
                moved = list(args)
                moved[i] = moved[i][::-1]
                other = type(value)(*moved)
                assert other == value and hash(other) == hash(value)

    def test_pickle_round_trip(self, name):
        value = VALUES[name][0]
        back = pickle.loads(pickle.dumps(value))
        assert back == value and repr(back) == repr(value)

    def test_assignment_refused(self, name):
        value = VALUES[name][0]
        for field in (*value._fields, "new_name"):
            with pytest.raises(AttributeError):
                setattr(value, field, 0)
        with pytest.raises(AttributeError):
            delattr(value, value._fields[0])
