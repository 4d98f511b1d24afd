"""Exception vocabulary shared by all modules, the one frozen base and
the one field equality.

Every error raised by the library derives from CatmeasError, so callers
(including the CLI) can distinguish library failures from programming
mistakes.
"""

from dataclasses import FrozenInstanceError


class Frozen:
    """Base of the immutable classes: assigning or deleting an attribute
    raises dataclasses.FrozenInstanceError, as on a frozen dataclass.
    `__init__` stores the fields past that guard with
    `self.__dict__.update`; a cached_property keeps its value there too."""

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class FieldEq:
    """Base of the value classes: == holds, identity first, between
    instances of one class whose `_key(self)` agree, and hash hashes it.
    `_key` is the class's operator.attrgetter of its compared fields; a
    mutable class sets `__hash__ = None`."""

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))


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
