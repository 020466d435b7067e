"""Exception types shared across the package."""

from __future__ import annotations


class AttrScaleError(Exception):
    """Base class for every error raised by this package."""


class WorkloadFormatError(AttrScaleError):
    """A workload or catalog file could not be parsed.

    line_number is 1-based and refers to the offending line when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message if line_number is None else f"line {line_number}: {message}")
        self.line_number = line_number


class SqlSyntaxError(AttrScaleError):
    """A SQL statement could not be tokenized or shaped into clauses.

    byte_offset points at the first byte (UTF-8) where parsing failed;
    query_id names the workload query the statement came from, when known.
    """

    def __init__(self, message: str, byte_offset: int, query_id: str | None = None):
        where = f"byte {byte_offset}: {message}"
        super().__init__(where if query_id is None else f"query {query_id!r}: {where}")
        self.reason = message
        self.byte_offset = byte_offset
        self.query_id = query_id


class UnsupportedSqlError(SqlSyntaxError):
    """Statement parsed but falls outside the supported SELECT subset."""


class SelectionError(AttrScaleError):
    """A selection spec cannot be applied to the loaded workload."""


class EmptyAnalysisError(AttrScaleError):
    """Nothing survives filtering: no attributes or no usable queries."""


class UnknownAttributeError(AttrScaleError):
    def __init__(self, name: str):
        super().__init__(f"unknown attribute: {name!r}")
        self.name = name


class DiagonalPairError(AttrScaleError):
    def __init__(self, name: str):
        super().__init__(f"pair ({name!r}, {name!r}) is the diagonal; dependency of an attribute on itself is undefined")
        self.name = name


class SnapshotError(AttrScaleError):
    """A snapshot file is unreadable, malformed, or fails its content hash."""
