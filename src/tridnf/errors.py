"""Exceptions and warnings shared across the package."""
from __future__ import annotations


class TridnfError(Exception):
    """Base class for all package errors."""


class LengthMismatchError(TridnfError, ValueError):
    """Two instances (or an instance and a dataset) disagree on width."""


class ParseError(TridnfError, ValueError):
    """Malformed formula text or data file.

    ``where`` is a character position for formula text and a 1-based line
    number for data files.
    """

    def __init__(self, message: str, where: int | str | None = None):
        self.where = where
        if where is not None:
            message = f"{message} (at {where})"
        super().__init__(message)


class FractionOutOfRangeError(TridnfError, ValueError):
    """Masking fraction outside [0, 1/2]."""


class CellOutOfRangeError(TridnfError, ValueError):
    """A mask plan names a cell that does not exist in the dataset."""


class BudgetExceededError(TridnfError, RuntimeError):
    """A search ran out of budget: the exhaustive formula search of its
    literal budget, or a completion search of its candidate budget."""


class ConsistencyAbort(TridnfError, RuntimeError):
    """The learner stopped because the working data became inconsistent.

    Carries enough context to point at the offending pair: ``reason`` is a
    short machine-friendly tag, ``pairs`` lists violating (i, j) positions
    (1-based, positives x negatives) when a self-consistency check failed,
    and ``instance_id``/``term`` identify a negative certainly satisfied by
    a freshly closed term.
    """

    def __init__(
        self,
        reason: str,
        *,
        pairs: tuple[tuple[int, int], ...] = (),
        instance_id: str = "",
        term: str = "",
        trace: tuple[str, ...] = (),
    ):
        self.reason = reason
        self.pairs = pairs
        self.instance_id = instance_id
        self.term = term
        self.trace = trace
        detail = reason
        if pairs:
            detail += "; violating pairs " + ", ".join(f"({i},{j})" for i, j in pairs)
        if instance_id:
            detail += f"; instance {instance_id!r}"
        if term:
            detail += f"; term {term!r}"
        super().__init__(detail)


class CountWarning(UserWarning):
    """A data file did not contain the expected number of records."""
