import inspect
import pickle

import pytest

from paramech import errors

# One instance of every error class, built as the package builds it.
INSTANCES = [
    errors.ParamechError("base"),
    errors.ScenarioError("value must be finite", line=3, field="dt"),
    errors.ScenarioError("no line or field"),
    errors.SingularSystemError("linear system: condition estimate 1e+13 exceeds 1e12"),
    errors.SingularHessianError("Hessian: condition estimate inf exceeds 1e12"),
    errors.SingularFormError("the Lagrangian two-form is degenerate at this point"),
    errors.SingularPointError("distance to the origin is not differentiable at 0"),
    errors.ConvergenceError("stage did not converge after 3 iterations", 3),
]


def test_every_error_class_has_an_instance():
    classes = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if cls.__module__ == errors.__name__
    }
    assert {type(error) for error in INSTANCES} == classes


@pytest.mark.parametrize("error", INSTANCES, ids=lambda error: type(error).__name__)
def test_errors_survive_a_pickle_round_trip(error):
    restored = pickle.loads(pickle.dumps(error))
    assert type(restored) is type(error)
    assert str(restored) == str(error)
    for attr in ("iterations", "line", "field"):
        assert getattr(restored, attr, "missing") == getattr(error, attr, "missing")

