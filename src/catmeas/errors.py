"""Exception vocabulary shared by all modules.

Every error raised by the library derives from CatmeasError, so callers
(including the CLI) can distinguish library failures from programming
mistakes.
"""


class CatmeasError(Exception):
    """Base class for all library errors."""


class InvalidModel(CatmeasError):
    """Malformed construction input (empty ground set, bad weights, ...)."""


class EmptyElement(CatmeasError):
    """An operation that needs a nonzero element received bottom."""


class FlavorMismatch(CatmeasError):
    """Space flavors are incompatible with the requested operation."""


class ResourceLimit(FlavorMismatch):
    """An exact enumeration would exceed its documented size cap.  It
    derives from FlavorMismatch, so handlers of that error still catch
    it.  `code` is a stable machine-readable tag, as on ModelError."""

    code = "too-large"

    def __init__(self, message: str):
        super().__init__(f"{self.code}: {message}")


class AlgebraMismatch(CatmeasError):
    """Operands live over different Boolean algebras."""


class NotAFunctor(CatmeasError):
    """Functoriality failed on the generating data (composition mismatch)."""


class NotACosheaf(CatmeasError):
    """A cosheaf-only operation received a precosheaf that fails the
    partition condition."""


class NotIdempotent(CatmeasError):
    """Idempotent splitting was asked of a non-idempotent element."""


class SupportError(CatmeasError):
    """A simple morphism is supported outside its declared domain."""


class UnknownPoint(CatmeasError):
    """A base-set label does not belong to the base."""


class DegenerateQuotient(CatmeasError):
    """Quotient by a null ideal that swallows every atom."""


class ModelError(CatmeasError):
    """CLI model file problem.  `code` is a stable machine-readable tag."""

    def __init__(self, code: str, message: str, path: str = ""):
        self.code = code
        self.path = path
        super().__init__(f"{code}: {message}" + (f" (at {path})" if path else ""))
