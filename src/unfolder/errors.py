"""Exception types shared across the package.

Every error raised on bad input derives from UnfolderError, so callers can
catch one base class at API boundaries (the CLI maps them to exit code 2).
"""

from __future__ import annotations


class UnfolderError(Exception):
    """Base class for all errors raised by this package."""


class MixedDimension(UnfolderError):
    """Facet list mixes cardinalities; complexes here are pure."""


class DegenerateFacet(UnfolderError):
    """A facet repeats a vertex."""


class SelfIdentification(UnfolderError):
    """Gluing closure identifies two distinct faces of one simplex."""


class NotAFace(UnfolderError):
    """The given vertex set is not a face of the complex."""


class NotAFacet(UnfolderError):
    """The given id or vertex set is not a facet."""


class BadGluing(UnfolderError):
    """Gluing record is malformed (bad ridge, bad bijection, loop)."""


class InvalidPath(UnfolderError):
    """Facet path steps through a gluing that does not touch the current facet."""


class NotStronglyConnected(UnfolderError):
    """Dual graph is disconnected but the operation needs one component."""


class NotLocallyStronglyConnected(UnfolderError):
    """Some face of codimension > 1 has a disconnected link."""


class DegenerateMap(UnfolderError):
    """Simplicial map collapses a simplex (two vertices share an image)."""


class Mismatch(UnfolderError):
    """Cross-check between two independent computations failed."""


class IsomorphismNotFound(UnfolderError):
    """Exhaustive isomorphism search ended without a witness."""


class BaseNotNice(UnfolderError):
    """Branch bookkeeping needs a base whose links are well behaved."""


class DimensionMismatch(UnfolderError):
    """Operands have different dimensions."""


class BadParameter(UnfolderError):
    """Parameter out of range for a generator (e.g. cycle length < 3)."""


class ParseError(UnfolderError):
    """Input document is not a valid complex description."""
