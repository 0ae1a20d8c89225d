"""Exception types raised by table validation, search, and checkers."""


class PowmonError(Exception):
    """Base class for all library errors."""


class NotAssociative(PowmonError):
    """Cayley table fails associativity; carries a witness triple (a, b, c)."""

    def __init__(self, a, b, c):
        self.witness = (a, b, c)
        super().__init__(f"not associative: ({a}*{b})*{c} != {a}*({b}*{c})")


class NoIdentity(PowmonError):
    """Cayley table has no (unique) two-sided identity."""


class SearchBudgetExceeded(PowmonError):
    """Isomorphism search hit its node limit before finishing.

    Distinguishes "not found within budget" from "proven absent": absence
    may only be claimed after an exhausted search.
    """

    def __init__(self, nodes):
        self.nodes = nodes
        super().__init__(f"search budget exceeded after {nodes} nodes")


class SizeLimitExceeded(PowmonError):
    """An input order or a power-monoid base is above its size bound."""


class PreconditionViolated(PowmonError):
    """Checker called with inputs outside its stated hypotheses."""

