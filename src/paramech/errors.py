"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes; see ``paramech.cli``.
"""

from __future__ import annotations


class ParamechError(Exception):
    """Base class for all errors raised by this package."""


class ScenarioError(ParamechError):
    """Malformed or inconsistent scenario file (parse or validation)."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        prefix = ""
        if line is not None:
            prefix += f"line {line}: "
        if field is not None:
            prefix += f"[{field}] "
        super().__init__(prefix + message)


class SingularSystemError(ParamechError):
    """A linear system required by the dynamics is singular or near-singular."""


class SingularHessianError(SingularSystemError):
    """The coordinate Hessian of the Lagrangian is not invertible (degenerate system)."""


class SingularFormError(SingularSystemError):
    """A two-form that must be nondegenerate is singular at the evaluation point."""


class SingularPointError(SingularSystemError):
    """A built-in scalar field was evaluated at one of its singular points."""


class ConvergenceError(ParamechError):
    """An implicit integrator stage failed to converge."""

    def __init__(self, message: str, iterations: int):
        self.iterations = iterations
        super().__init__(message)

    def __reduce__(self):
        # The default would call the constructor with the message alone.
        return type(self), (*self.args, self.iterations), self.__dict__
