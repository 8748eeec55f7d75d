"""Exception taxonomy shared by all modules."""


class JDiskError(Exception):
    """Base class for all library errors."""


class InvalidParams(JDiskError):
    """Malformed or out-of-range parameters."""


class UnknownName(JDiskError):
    """Requested a gallery entry or builtin that does not exist."""


class Singular(JDiskError):
    """A linear system required by the structure algebra is not solvable
    (condition number above the configured cap); ``where`` holds the point,
    or the node label, where it fired."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


class InvalidGrid(JDiskError):
    """Grid construction rejected (even node count, too few nodes, bad radius)."""


class OutsideDisk(JDiskError):
    """A point expected strictly inside the disk lies on or beyond the boundary."""


class OutsideInterpolationRange(JDiskError):
    """Interpolation requested where the surrounding cell is not fully available."""


class GridMismatch(JDiskError):
    """Two objects built on incompatible grids were combined."""


class Diverged(JDiskError):
    """Fixed-point iteration stopped contracting, or ran out of its budget.

    ``deltas`` holds the last 10 sup-norm step changes of the iterate, the
    two 5-step windows whose largest changes the no-contraction test
    compares, and ``ratio`` the worst contraction ratio of the run (None
    before two steps)."""

    def __init__(self, message: str, deltas=(), ratio=None):
        super().__init__(message)
        self.deltas = list(deltas)
        self.ratio = ratio


class ZeroDerivative(JDiskError):
    """Rescaling requires a nonzero derivative at the origin."""


class HypothesisViolated(JDiskError):
    """Reparametrization called with a target level above the map's derivative."""


class InvalidChain(JDiskError):
    """Chain links do not share endpoints within tolerance."""


class NoChainFound(JDiskError):
    """Distance search exhausted every (k, t) combination without a valid chain."""


class NotHolomorphicMap(JDiskError):
    """Pushforward produced links whose residual check failed."""


class ConfigError(JDiskError):
    """CLI configuration failed schema validation."""
