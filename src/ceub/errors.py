"""Exception types shared across the package."""


class CeubError(Exception):
    """Base class for every package-specific error."""


class EmptyMatrix(CeubError):
    """Raised when a valuation matrix has no agents or no items."""


class NonPositiveValuation(CeubError):
    """Raised when a valuation entry is zero or negative."""

    def __init__(self, agent: int, item: int, value=None):
        self.agent = agent
        self.item = item
        self.value = value
        detail = "" if value is None else f" (got {value})"
        super().__init__(f"valuation for agent {agent}, item {item} must be > 0{detail}")


class DimensionMismatch(CeubError):
    """Raised when matrix/vector shapes disagree with the instance."""


class ZeroPrice(CeubError):
    """Raised when a price is not strictly positive; the greedy demand
    oracle is undefined there (a free item breaks the budget bound)."""

    def __init__(self, item: int):
        self.item = item
        super().__init__(f"price of item {item} must be > 0 for the demand oracle")


class NotParetoOptimal(CeubError):
    """Raised when an allocation that was required to be Pareto optimal
    turns out not to be. May carry the verdict that proves it."""

    def __init__(self, message: str, verdict=None):
        self.verdict = verdict
        super().__init__(message)


class InfeasibleLP(NotParetoOptimal):
    """Raised when no positive tree multipliers remove cross-tree envy.

    For a cycle-free Pareto-optimal input such multipliers always exist,
    so a cycle of tree ratio pairs with product > 1 proves the input
    allocation was not Pareto optimal; hence the subclassing."""


class SameTree(CeubError):
    """Raised when a cross-tree quantity is requested for an agent and an
    item living in the same tree."""

    def __init__(self, agent: int, item: int):
        self.agent = agent
        self.item = item
        super().__init__(f"agent {agent} and item {item} are in the same tree")


class InternalVerificationFailed(CeubError):
    """An end-of-pipeline self-check failed. This is a bug in the
    pipeline, never a property of valid input."""


class NotAForest(CeubError):
    """Raised when a graph required to be cycle-free contains a cycle."""


class OrphanItem(CeubError):
    """Raised when an item vertex belongs to no agent's component, which
    cannot happen for fully allocated inputs."""

    def __init__(self, item: int):
        self.item = item
        super().__init__(f"item {item} is not connected to any agent")


class WrongAgentCount(CeubError):
    """Raised by the two-agent fast path on instances with n != 2."""


class WrongItemCount(CeubError):
    """Raised by the two-item fast path on instances with m != 2."""


class MalformedProblem(CeubError):
    """Raised when a linear program is structurally invalid."""


class SchemaError(CeubError):
    """Raised when a document fails schema validation; names the field."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)
