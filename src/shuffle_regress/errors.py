"""Exception hierarchy shared across the package.

Argument and schema problems are ValueErrors so they read naturally at call
sites; invariant breaches that indicate a bug in the solver itself get their
own RuntimeError subclass so callers (and the CLI) can tell the two apart.
"""


class ParseError(ValueError):
    """Input file is not syntactically valid (bad JSON, non-finite literals)."""


class SchemaError(ValueError):
    """Input parses but violates the instance schema (missing/ill-shaped fields)."""


class CapExceededError(ValueError):
    """A brute-force oracle was asked to exceed its hard instance-size cap."""


class BudgetExceededError(RuntimeError):
    """Candidate enumeration would exceed the configured evaluation budget."""


class InternalInvariantError(RuntimeError):
    """An internal soundness invariant failed; indicates a bug, not bad input."""


class RankDeficiencyError(ValueError):
    """A matrix that must have full column rank does not."""


class DegenerateInstanceError(ValueError):
    """Instance is degenerate for the requested solver (e.g. all responses zero)."""
