"""Exception types shared across the package."""


class SeparationError(ValueError):
    """Invalid separation data, or objects from different universes."""


class UniverseClosureError(SeparationError):
    """A join or meet fell outside the universe's element set."""


class NotNestedError(SeparationError):
    """An operation required a nested set of separations."""


class SizeBoundError(RuntimeError):
    """An enumeration size bound was exceeded."""


class SplinterConditionError(RuntimeError):
    """The splinter precondition failed; carries the first violating pair."""

    def __init__(self, witness, message="family does not splinter"):
        super().__init__(f"{message}: witness {witness!r}")
        self.witness = witness


class HierarchicalConditionError(SplinterConditionError):
    """The hierarchical splinter precondition failed."""

    def __init__(self, witness):
        super().__init__(witness, "family does not splinter hierarchically")


class InternalContradictionError(RuntimeError):
    """An internal invariant promised by a lemma was violated at runtime."""


class VerificationError(RuntimeError):
    """An emitted or imported artifact failed re-verification."""


class InputError(ValueError):
    """Malformed input file or invalid run parameters."""
