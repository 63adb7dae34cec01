"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an operation receives a structurally invalid input."""


class FieldMismatchError(InputError):
    """Raised when exact values from different coefficient fields are mixed."""


class SamplingError(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget.

    Over a small prime field the genericity predicates may be unsatisfiable,
    so the sampler gives up after a bounded number of retries instead of
    spinning forever.
    """


class TaxonomyError(AssertionError):
    """Raised by ``verify_taxonomy_table`` when the golden table is inconsistent.

    The table must have 42 entries, the endpoint dimensions 18 and 0, and
    nonincreasing expected dimensions; a violation signals a bug in the
    package, not bad user input.
    """
