"""Attribute catalog: the ordered name-to-column mapping every matrix shares."""

from __future__ import annotations

import codecs
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import WorkloadFormatError


def encodes_as_utf8(text: str) -> bool:
    """Whether text has a UTF-8 encoding; a lone surrogate, which a JSON \\ud800 escape can carry, has none."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """(1-based number, text) of each line of a UTF-8 input file, read one line at a time and split at
    "\\n" only (U+2028 may sit in a name, and is legal raw in JSON); a byte order mark opening the file
    is skipped. WorkloadFormatError names the file it cannot read, or the line of a byte that is not UTF-8."""
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if lineno == 1 and raw.startswith(codecs.BOM_UTF8):
                    raw = raw[len(codecs.BOM_UTF8):]
                try:
                    yield lineno, raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise WorkloadFormatError(f"{what} {path} is not UTF-8: {exc.reason}", lineno) from None
    except OSError as exc:
        raise WorkloadFormatError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc


@dataclass(frozen=True)
class AttributeCatalog:
    """Ordered attribute names, index = column position; the duplicate check builds _by_name, their casefold index."""

    attributes: tuple[str, ...]

    def __post_init__(self):
        if not self.attributes:
            raise WorkloadFormatError("catalog has no attributes")
        for name in self.attributes:
            if not isinstance(name, str):  # a resealed snapshot can list a 5 or a null
                raise WorkloadFormatError(f"attribute name {name!r} is not a string")
        folded = [a.casefold() for a in self.attributes]
        if any(not a for a in self.attributes):
            raise WorkloadFormatError("catalog contains an empty attribute name")
        by_name = dict(zip(folded, range(len(folded))))
        if len(by_name) != len(folded):
            dup = next(a for a in folded if folded.count(a) > 1)
            raise WorkloadFormatError(f"duplicate attribute name (case-insensitive): {dup!r}")
        if not encodes_as_utf8("".join(self.attributes)):
            bad = next(a for a in self.attributes if not encodes_as_utf8(a))
            raise WorkloadFormatError(f"attribute name {bad!r} has no UTF-8 encoding")
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.attributes)

    @cached_property
    def _by_suffix(self) -> dict[str, int | None]:
        # bare column name -> index for dotted entries; None marks an ambiguous suffix
        table: dict[str, int | None] = {}
        for i, a in enumerate(self.attributes):
            folded = a.casefold()
            if "." in folded:
                suffix = folded.rsplit(".", 1)[1]
                table[suffix] = None if suffix in table else i
        return table

    def lookup_suffix(self, folded_name: str) -> int | None:
        return self._by_suffix.get(folded_name)

    def index_of(self, name: str) -> int | None:
        """Index for a user-supplied name, case-insensitively."""
        return self._by_name.get(name.casefold())

    def subset(self, indices: list[int]) -> AttributeCatalog:
        """New catalog keeping only `indices`, original relative order."""
        return AttributeCatalog(tuple(self.attributes[i] for i in indices))


def load_catalog(path: str | Path) -> AttributeCatalog:
    """Read a catalog file: one attribute name per line, order significant.

    An optional first non-blank line "M=<integer>" declares the database-wide
    attribute count; it is checked against the names listed and not kept.
    Blank lines and a UTF-8 byte order mark are skipped.
    """
    names: list[str] = []
    count: int | None = None
    for lineno, raw in read_lines(path, "catalog"):
        line = raw.strip()
        if not line:
            continue
        if not names and count is None and line.startswith("M="):
            try:
                count = int(line[2:])
            except ValueError:
                raise WorkloadFormatError(f"bad M= header: {line!r}", lineno) from None
            if count < 0:
                raise WorkloadFormatError(f"M must be non-negative, got {count}", lineno)
            continue
        names.append(line)
    if count is not None and len(names) > count:
        raise WorkloadFormatError(f"catalog lists {len(names)} attributes but M={count}")
    return AttributeCatalog(tuple(names))
