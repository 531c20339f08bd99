"""Shared exception types and the search budget counter."""


class TreeconnError(Exception):
    """Base class for library errors."""


class GraphFormatError(TreeconnError):
    """Raised when edge-list text input is malformed."""


class BudgetExhausted(TreeconnError):
    """Raised when a search exceeds its node-expansion budget.

    This signals "instance too large for desk-scale search", never
    nonexistence of the searched-for object.
    """


class Budget:
    """Mutable node-expansion counter shared across a search.

    tick() is called once per expansion and raises BudgetExhausted when the
    cap is hit.
    """

    def __init__(self, limit: int = 10**7):
        self.limit = limit
        self.used = 0

    def tick(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetExhausted(f"search budget of {self.limit} expansions exhausted")
