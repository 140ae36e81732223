"""Exception types raised across the package.

Each error carries the indices or sizes that witness the failure, so callers
(and the CLI) can report exactly where a check broke down.
"""


class LinesatError(Exception):
    """Base class for all domain errors raised by this package."""


class IndexOutOfRange(LinesatError):
    def __init__(self, index, n):
        super().__init__(f"point index {index} out of range for {n} points")
        self.index = index
        self.n = n


class AsymmetryError(LinesatError):
    def __init__(self, i, j):
        super().__init__(f"d[{i}][{j}] != d[{j}][{i}]")
        self.i = i
        self.j = j


class NonzeroDiagonal(LinesatError):
    def __init__(self, i):
        super().__init__(f"d[{i}][{i}] != 0")
        self.i = i


class NonpositiveDistance(LinesatError):
    def __init__(self, i, j):
        super().__init__(f"d[{i}][{j}] <= 0 for distinct points")
        self.i = i
        self.j = j


class TriangleViolation(LinesatError):
    """d[i][j] exceeds d[i][k] + d[k][j]."""

    def __init__(self, i, j, k):
        super().__init__(f"d[{i}][{j}] > d[{i}][{k}] + d[{k}][{j}]")
        self.i = i
        self.j = j
        self.k = k


class TooFewPoints(LinesatError):
    def __init__(self, n, need):
        super().__init__(f"operation needs at least {need} points, got {n}")
        self.n = n
        self.need = need


class DisconnectedGraph(LinesatError):
    def __init__(self, component):
        super().__init__(f"graph is disconnected; one component is {sorted(component)}")
        self.component = frozenset(component)


class DuplicateCoordinate(LinesatError):
    def __init__(self, i, j):
        super().__init__(f"coordinates {i} and {j} coincide")
        self.i = i
        self.j = j


class OutOfRange(LinesatError):
    """A subset, rank, size or count falls outside its allowed range."""


class TooFewVertices(LinesatError):
    def __init__(self, n, need):
        super().__init__(f"construction needs at least {need} vertices, got {n}")
        self.n = n
        self.need = need


class InvalidK(LinesatError):
    def __init__(self, k, r):
        super().__init__(f"clique size k={k} must be at least the uniformity r={r}")
        self.k = k
        self.r = r


class BudgetExceeded(LinesatError):
    def __init__(self, required, budget, what="candidates"):
        super().__init__(
            f"enumeration needs {required} {what}, over the budget of {budget}"
        )
        self.required = required
        self.budget = budget


class NotAPermutation(LinesatError):
    def __init__(self, order, n):
        super().__init__(f"{list(order)} is not a permutation of 0..{n - 1}")
        self.order = tuple(order)
        self.n = n


class SizeMismatch(LinesatError):
    def __init__(self, n_hypergraph, n_metric):
        super().__init__(
            f"hypergraph has {n_hypergraph} vertices but metric has {n_metric} points"
        )
        self.n_hypergraph = n_hypergraph
        self.n_metric = n_metric


class CeilingExceeded(LinesatError):
    def __init__(self, n, ceiling):
        super().__init__(
            f"realizability search on {n} vertices exceeds the ceiling of {ceiling}; "
            "raise it explicitly to accept the exponential branching"
        )
        self.n = n
        self.ceiling = ceiling


class FormatError(LinesatError):
    """An input file or stream does not match its declared schema."""


class InternalConsistencyError(LinesatError):
    """A state the metric axioms or a certificate's proof make impossible was
    reached; indicates a bug or an invalid input that skipped validation."""
