"""Line records: the layer under the WLG (graph.py) and `p cc` scheme
(coherent.py) text formats.

Both formats are lines of a one-letter tag and integer fields, with `#`
comments, blank lines and any whitespace between fields.  A `RecordFormat`
names a format's tags, their field counts and their error messages.
`Records` finds the longest prefix of well-formed lines with one regex
search, reads every field of that prefix with one `np.fromstring`, and leaves
the checks to array operations; only an error maps a record back to its line.
"""
from __future__ import annotations

import re
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParseError

# str.splitlines' line breaks become "\n" ("\r\n" is one break and goes
# first) and the other whitespace str.split splits on becomes " "
_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPACES = (
    "\t\x1f\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a"
    "\u202f\u205f\u3000"
)
_PLAIN = str.maketrans(_BREAKS + _SPACES, "\n" * len(_BREAKS) + " " * len(_SPACES))
_COMMENT = re.compile(r"#[^\n]*")
# a field: ASCII digits with an optional sign, at most 18 of them, so that
# every field fits in int64 above the tag markers
_FIELD = r"[+-]?[0-9]{1,18}"
# tag i of a line is read as the number _MARK - i, below every field
_MARK = -(10**18)


class Tag(NamedTuple):
    """A record tag: its letter, its least and greatest number of fields,
    and the errors of a line with another number of fields or with a field
    that is not an integer."""

    letter: str
    fields: tuple[int, int]
    shape: str
    integers: str


class RecordFormat:
    """A text format: `header` (letter "p") starts the text as `p <word>
    <fields>`; `tags` are the other records, allowed only after it.
    `unknown` and `early` are the errors of an unknown tag and of a record
    before the header, each formatted with the line's tag."""

    def __init__(self, word: str, header: Tag, tags: tuple[Tag, ...], unknown: str, early: str):
        self.word, self.unknown, self.early = word, unknown, early
        self.tags = (header,) + tags
        self.width = max(t.fields[1] for t in self.tags)
        records = []
        for t in self.tags:
            lo, hi = t.fields
            start = f"{t.letter} +{word}" if t is header else t.letter
            records.append(start + f" +{_FIELD}" * lo + f"(?: +{_FIELD})?" * (hi - lo))
        # a line break not followed by a well-formed or blank line; searched
        # for in "\n" + text, it ends the well-formed prefix (a group repeated
        # over the whole text would grow the regex engine's stack every line)
        self.first_bad = re.compile(rf"\n(?! *(?:{'|'.join(records)})? *\n)")

    def line_error(self, parts: list[str], have_header: bool) -> str:
        """Why a line, split into `parts`, is not a well-formed record."""
        tag = next((t for t in self.tags if t.letter == parts[0]), None)
        if tag is None:
            return self.unknown.format(parts[0])
        count = len(parts) - 1
        if tag is self.tags[0]:
            if have_header:
                return "duplicate header"
            if not tag.fields[0] <= count - 1 <= tag.fields[1] or parts[1] != self.word:
                return tag.shape
            return tag.integers
        if not have_header:
            return self.early.format(tag.letter)
        if not tag.fields[0] <= count <= tag.fields[1]:
            return tag.shape
        return tag.integers


class Records:
    """The records of a text's well-formed prefix, in file order: `kind[r]`
    is the index of record r's tag in `RecordFormat.tags` (0 for a header)
    and `fields[r]` its fields, absent ones read as 0.

    A parser checks the records with `check` and then calls `finish`, which
    raises the error of the earliest failing line: a failed check, or else
    the first malformed line after the prefix.  `heads` are the header
    records and `after(i)` the tag-i records after the first header."""

    def __init__(self, text: str, fmt: RecordFormat):
        body = text.replace("\r\n", "\n").translate(_PLAIN)
        if not body.endswith("\n"):
            body += "\n"
        body = _COMMENT.sub("", body)
        good = fmt.first_bad.search("\n" + body).start()
        head = body[:good]
        self._head = head
        self._bad = None
        if good < len(body):
            self._bad = (head.count("\n") + 1, body[good : body.index("\n", good)].split())
        head = head.replace(fmt.word, " ")
        for i, tag in enumerate(fmt.tags):
            head = head.replace(tag.letter, f" {_MARK - i} ")
        # `width` markers after the last record end its fields
        width = fmt.width
        flat = np.fromstring(head + f" {_MARK}" * width, dtype=np.int64, sep=" ")
        pos = np.flatnonzero(flat <= _MARK)[:-width]
        fields = np.zeros((pos.shape[0], width), dtype=np.int64)
        has = np.ones(pos.shape[0], dtype=bool)
        for j in range(width):
            got = flat[pos + 1 + j]
            has &= got > _MARK
            fields[has, j] = got[has]
        self.kind = _MARK - flat[pos]
        self.fields = fields
        self._fmt = fmt
        self._found: list[tuple[int, int, str]] = []
        self._checks = 0
        index = np.arange(self.kind.shape[0])
        self.heads = index[self.kind == 0]
        self._start = int(self.heads[0]) if self.heads.size else self.kind.shape[0]
        self.check(self.heads[1:2], True, lambda r: "duplicate header")
        # every record before the first header is a tagged record
        self.check(index[:1], self._start > 0,
                   lambda r: fmt.early.format(fmt.tags[self.kind[r]].letter))

    def after(self, i: int) -> np.ndarray:
        """The tag-i records after the first header."""
        index = np.arange(self._start + 1, self.kind.shape[0])
        return index[self.kind[self._start + 1 :] == i]

    def check(self, records: np.ndarray, failed, message: Callable[[int], str]) -> None:
        """`records[failed]` fail this check (`failed` may be one bool for
        all); `message(r)` words the failure of record r.  A record that
        fails several checks reports the check made first."""
        if isinstance(failed, np.ndarray):
            hit = int(failed.argmax()) if failed.any() else None
        else:
            hit = 0 if failed and records.shape[0] else None
        if hit is not None:
            r = int(records[hit])
            self._found.append((r, self._checks, message(r)))
        self._checks += 1

    def line(self, r: int) -> int:
        """1-based line number of record r: its line is the r-th non-blank
        line of the prefix."""
        lines = self._head.split("\n")
        return [i for i, ln in enumerate(lines, start=1) if ln.strip()][r]

    def finish(self) -> None:
        if self._found:
            r, _, message = min(self._found)
            raise ParseError(message, self.line(r))
        if self._bad is not None:
            lineno, parts = self._bad
            raise ParseError(self._fmt.line_error(parts, bool(self.heads.size)), lineno)


def repeats(*cols: np.ndarray) -> np.ndarray:
    """Mask of the rows of `cols` that equal an earlier row."""
    out = np.zeros(cols[0].shape[0], dtype=bool)
    if out.shape[0] > 1:
        order = np.lexsort(cols[::-1])  # stable: equal rows stay in file order
        same = np.ones(order.shape[0] - 1, dtype=bool)
        for col in cols:
            srt = col[order]
            same &= srt[1:] == srt[:-1]
        out[order[1:][same]] = True
    return out
