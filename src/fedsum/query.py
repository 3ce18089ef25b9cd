"""Split-query parsing and validation.

An analyst submits one text document containing two SELECT statements
separated by a blank line.  The first statement runs on each device over
its local trip stream (:data:`DEFAULT_TRIPS_STREAM`, the only one, whose
summable columns are the keys of :data:`METRIC_BY_COLUMN`); the second
runs on the server over the per-device results.  Only grouped sums are
expressible: the server can never receive a raw per-device column, and
every query must group by the privacy time unit column so each release
covers exactly one time window.  A release is one sum per uploaded cell,
so both statements group by exactly the release keys
(``RELEASE_KEY_COLUMNS``), the client statement sums each stream column
at most once and the server statement sums each client column exactly
once.  Every query the validator accepts can be run.

Example::

    SELECT activity, region, direction, privacy_time_unit, SUM(trip_distance) AS km
    FROM DeviceDataStream GROUP BY activity, region, direction, privacy_time_unit

    SELECT activity, region, direction, privacy_time_unit, SUM(km)
    FROM UserResults GROUP BY activity, region, direction, privacy_time_unit;

Keywords are case-insensitive.  ``parse_query`` produces the two
statement ASTs or a :class:`ParseError` carrying 1-based line/column;
``validate_split`` applies the semantic rules and returns a
:class:`QuerySpec`; ``to_agg_config`` gives the configuration of the
aggregation core that sums the uploaded client rows.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field
from functools import cached_property

from .aggcore import AggCoreConfig
from .model import METRIC_DISTANCE, METRIC_DURATION, METRIC_NUM_TRIPS

__all__ = [
    "PRIVACY_TIME_UNIT",
    "RELEASE_KEY_COLUMNS",
    "METRIC_BY_COLUMN",
    "StreamSchema",
    "DEFAULT_TRIPS_STREAM",
    "ParseError",
    "QueryValidationError",
    "NonAggregatingQueryError",
    "MissingPrivacyTimeUnitError",
    "UnknownColumnError",
    "EmptyServerAggregationError",
    "UnsupportedAggregateError",
    "Column",
    "Aggregate",
    "Statement",
    "QuerySpec",
    "parse_query",
    "validate_split",
    "parse_and_validate",
    "pretty_print",
    "to_agg_config",
]

# Name of the synthesized column holding each row's time-window id.
PRIVACY_TIME_UNIT = "privacy_time_unit"


@dataclass(frozen=True)
class StreamSchema:
    """Columns of an on-device stream visible to client queries."""

    name: str
    key_columns: frozenset[str]
    numeric_columns: frozenset[str]

    @property
    def all_columns(self) -> frozenset[str]:
        return self.key_columns | self.numeric_columns


# The keys of a released histogram; client and server statements group by these.
RELEASE_KEY_COLUMNS = frozenset(
    {"activity", "region", "direction", PRIVACY_TIME_UNIT}
)

# The stream's summable columns and the metric each one sums: the one
# table of them, which the client codec reads too.
METRIC_BY_COLUMN = {
    "trip_count": METRIC_NUM_TRIPS,
    "trip_distance": METRIC_DISTANCE,
    "trip_duration": METRIC_DURATION,
}

DEFAULT_TRIPS_STREAM = StreamSchema(
    name="DeviceDataStream",
    key_columns=RELEASE_KEY_COLUMNS,
    numeric_columns=frozenset(METRIC_BY_COLUMN),
)

# Table name the server statement must select from: the virtual relation
# of per-device client results.
DEVICE_RESULTS_TABLE = "UserResults"


class ParseError(ValueError):
    """Syntax error with 1-based source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.bare_message = message


class QueryValidationError(ValueError):
    """A structurally valid query that violates the split-query rules."""


class NonAggregatingQueryError(QueryValidationError):
    """A statement lacks GROUP BY or selects a raw, ungrouped column."""


class MissingPrivacyTimeUnitError(QueryValidationError):
    """The privacy time unit column is absent from a GROUP BY clause."""


class UnknownColumnError(QueryValidationError):
    """A referenced column does not exist at that stage."""


class EmptyServerAggregationError(QueryValidationError):
    """The server statement computes no SUM column."""


class UnsupportedAggregateError(QueryValidationError):
    """An aggregate other than SUM over a numeric column was requested."""


# --------------------------------------------------------------------------
# Tokenizer


class _Tok(enum.Enum):
    IDENT = "identifier"
    COMMA = "','"
    LPAREN = "'('"
    RPAREN = "')'"
    SEMI = "';'"
    EOF = "end of input"


@dataclass(frozen=True)
class _Token:
    kind: _Tok
    text: str
    line: int
    column: int


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_PUNCT = {",": _Tok.COMMA, "(": _Tok.LPAREN, ")": _Tok.RPAREN, ";": _Tok.SEMI}


def _tokenize(text: str, line_offset: int = 0) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1 + line_offset
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_PUNCT[ch], ch, line, col))
            i += 1
            col += 1
            continue
        m = _IDENT_RE.match(text, i)
        if m:
            word = m.group(0)
            tokens.append(_Token(_Tok.IDENT, word, line, col))
            i = m.end()
            col += len(word)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token(_Tok.EOF, "", line, col))
    return tokens


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Column:
    """A plain (non-aggregated) select item."""

    name: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Aggregate:
    """``func(source) AS alias`` select item; the alias defaults to the
    source column when no ``AS`` clause is given."""

    func: str
    source: str
    alias: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Statement:
    items: tuple[Column | Aggregate, ...]
    table: str
    group_by: tuple[str, ...]

    @property
    def aggregates(self) -> tuple[Aggregate, ...]:
        return tuple(i for i in self.items if isinstance(i, Aggregate))

    @property
    def plain_columns(self) -> tuple[Column, ...]:
        return tuple(i for i in self.items if isinstance(i, Column))

    @property
    def output_columns(self) -> tuple[str, ...]:
        return tuple(
            i.alias if isinstance(i, Aggregate) else i.name for i in self.items
        )


@dataclass(frozen=True)
class QuerySpec:
    """A validated split query, ready to drive the pipeline.

    ``client`` groups the device's stream; ``server`` groups-and-sums the
    per-device rows.  ``metric_columns`` is each uploaded value's client
    SUM source column and ``metrics`` the metric it sums, in slot order.
    """

    client: Statement
    server: Statement

    @property
    def client_key_columns(self) -> tuple[str, ...]:
        return self.client.group_by

    @property
    def server_key_columns(self) -> tuple[str, ...]:
        return self.server.group_by

    @property
    def client_value_columns(self) -> tuple[str, ...]:
        return tuple(a.alias for a in self.client.aggregates)

    @property
    def metric_columns(self) -> tuple[str, ...]:
        return tuple(a.source for a in self.client.aggregates)

    @cached_property
    def metrics(self) -> tuple[int, ...]:
        return tuple(METRIC_BY_COLUMN[column] for column in self.metric_columns)


# --------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind is not _Tok.EOF:
            self._pos += 1
        return tok

    def _error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok or self._peek()
        return ParseError(message, tok.line, tok.column)

    def _expect(self, kind: _Tok) -> _Token:
        tok = self._peek()
        if tok.kind is not kind:
            raise self._error(f"expected {kind.value}, found {tok.text or 'end of input'!r}")
        return self._advance()

    def _expect_keyword(self, word: str) -> _Token:
        tok = self._peek()
        if tok.kind is not _Tok.IDENT or tok.text.upper() != word:
            raise self._error(
                f"expected {word}, found {tok.text or 'end of input'!r}"
            )
        return self._advance()

    def _at_keyword(self, word: str) -> bool:
        tok = self._peek()
        return tok.kind is _Tok.IDENT and tok.text.upper() == word

    def _ident(self, what: str) -> _Token:
        tok = self._peek()
        if tok.kind is not _Tok.IDENT:
            raise self._error(f"expected {what}, found {tok.text or 'end of input'!r}")
        if tok.text.upper() in _RESERVED:
            raise self._error(f"expected {what}, found keyword {tok.text!r}")
        return self._advance()

    def parse_statement(self) -> Statement:
        self._expect_keyword("SELECT")
        items = [self._select_item()]
        while self._peek().kind is _Tok.COMMA:
            self._advance()
            items.append(self._select_item())
        self._expect_keyword("FROM")
        table = self._ident("table name").text
        group_by: tuple[str, ...] = ()
        if self._at_keyword("GROUP"):
            self._advance()
            self._expect_keyword("BY")
            keys = [self._ident("column name").text]
            while self._peek().kind is _Tok.COMMA:
                self._advance()
                keys.append(self._ident("column name").text)
            group_by = tuple(keys)
        if self._peek().kind is _Tok.SEMI:
            self._advance()
        tok = self._peek()
        if tok.kind is not _Tok.EOF:
            raise self._error(f"unexpected trailing input {tok.text!r}")
        return Statement(tuple(items), table, group_by)

    def _select_item(self) -> Column | Aggregate:
        name_tok = self._ident("column name or aggregate")
        if self._peek().kind is not _Tok.LPAREN:
            return Column(name_tok.text, name_tok.line, name_tok.column)
        self._advance()
        source = self._ident("column name").text
        self._expect(_Tok.RPAREN)
        if self._at_keyword("AS"):
            self._advance()
            alias = self._ident("alias").text
        else:
            alias = source
        return Aggregate(
            name_tok.text.upper(), source, alias, name_tok.line, name_tok.column
        )


_RESERVED = {"SELECT", "FROM", "GROUP", "BY", "AS"}


def _split_statements(text: str) -> list[tuple[str, int]]:
    """Split a document into (chunk, line_offset) pairs on blank lines."""
    chunks: list[tuple[str, int]] = []
    current: list[str] = []
    start_line = 0
    for lineno, line in enumerate(text.split("\n")):
        if line.strip():
            if not current:
                start_line = lineno
            current.append(line)
        elif current:
            chunks.append(("\n".join(current), start_line))
            current = []
    if current:
        chunks.append(("\n".join(current), start_line))
    return chunks


def parse_query(text: str) -> tuple[Statement, Statement]:
    """Parse a two-statement split query document."""
    chunks = _split_statements(text)
    if len(chunks) != 2:
        raise ParseError(
            "expected exactly two statements separated by a blank line, "
            f"found {len(chunks)}",
            1,
            1,
        )
    statements = []
    for chunk, offset in chunks:
        parser = _Parser(_tokenize(chunk, line_offset=offset))
        statements.append(parser.parse_statement())
    return statements[0], statements[1]


# --------------------------------------------------------------------------
# Validation


def _check_statement_shape(stmt: Statement, stage: str) -> None:
    """Rules common to both stages: grouped, no raw ungrouped columns."""
    if not stmt.group_by:
        raise NonAggregatingQueryError(
            f"{stage} statement has no GROUP BY clause"
        )
    group_set = set(stmt.group_by)
    for item in stmt.plain_columns:
        if item.name not in group_set:
            raise NonAggregatingQueryError(
                f"{stage} statement selects raw column {item.name!r} "
                "that is not in GROUP BY"
            )
    seen: set[str] = set()
    for name in stmt.output_columns:
        if name in seen:
            raise QueryValidationError(
                f"{stage} statement output column {name!r} is duplicated"
            )
        seen.add(name)
    for agg in stmt.aggregates:
        if agg.source in group_set:
            raise UnsupportedAggregateError(
                f"{stage} statement aggregates grouping column {agg.source!r}"
            )


def validate_split(client: Statement, server: Statement) -> QuerySpec:
    """Apply the split-query rules; the server may only see grouped sums.

    The release's rules come last, so a query that breaks an earlier
    rule keeps that rule's error class.
    """
    _check_statement_shape(client, "client")
    _check_statement_shape(server, "server")

    if client.table != DEFAULT_TRIPS_STREAM.name:
        raise UnknownColumnError(
            f"client statement reads {client.table!r}; expected stream "
            f"{DEFAULT_TRIPS_STREAM.name!r}"
        )
    if server.table != DEVICE_RESULTS_TABLE:
        raise UnknownColumnError(
            f"server statement reads {server.table!r}; expected "
            f"{DEVICE_RESULTS_TABLE!r}"
        )

    for agg in client.aggregates + server.aggregates:
        if agg.func != "SUM":
            raise UnsupportedAggregateError(
                f"aggregate {agg.func} is not supported; only SUM"
            )

    # Client stage references the stream's columns.
    for key in client.group_by:
        if key not in DEFAULT_TRIPS_STREAM.all_columns:
            raise UnknownColumnError(f"unknown stream column {key!r}")
        if key not in DEFAULT_TRIPS_STREAM.key_columns:
            raise UnknownColumnError(
                f"column {key!r} is not a grouping column of the stream"
            )
    if not client.aggregates:
        raise EmptyServerAggregationError(
            "client statement computes no SUM column"
        )
    for agg in client.aggregates:
        if agg.source not in DEFAULT_TRIPS_STREAM.all_columns:
            raise UnknownColumnError(f"unknown stream column {agg.source!r}")
        if agg.source not in DEFAULT_TRIPS_STREAM.numeric_columns:
            raise UnsupportedAggregateError(
                f"column {agg.source!r} is not numeric; SUM requires a "
                "numeric column"
            )
        if agg.alias in DEFAULT_TRIPS_STREAM.key_columns:
            raise QueryValidationError(
                f"alias {agg.alias!r} shadows a grouping column"
            )

    if PRIVACY_TIME_UNIT not in client.group_by:
        raise MissingPrivacyTimeUnitError(
            f"client statement must group by {PRIVACY_TIME_UNIT!r}"
        )

    # Server stage references the client's output columns.
    client_keys = set(client.group_by)
    client_values = {a.alias for a in client.aggregates}
    for key in server.group_by:
        if key in client_values:
            raise NonAggregatingQueryError(
                f"server statement groups by client sum column {key!r}"
            )
        if key not in client_keys:
            raise UnknownColumnError(
                f"server group key {key!r} is not produced by the client "
                "statement"
            )
    if not server.aggregates:
        raise EmptyServerAggregationError(
            "server statement computes no SUM column"
        )
    for agg in server.aggregates:
        if agg.source not in client_values:
            raise UnknownColumnError(
                f"server statement sums {agg.source!r}, which is not a "
                "client sum column"
            )
    if PRIVACY_TIME_UNIT not in server.group_by:
        raise MissingPrivacyTimeUnitError(
            f"server statement must group by {PRIVACY_TIME_UNIT!r}"
        )

    # The release is one sum per uploaded cell: each row one partition of
    # one window, each value one client column, summed once.
    for stage, statement in (("client", client), ("server", server)):
        if sorted(statement.group_by) != sorted(RELEASE_KEY_COLUMNS):
            raise QueryValidationError(
                f"release pipeline requires grouping the {stage} statement by exactly "
                f"{sorted(RELEASE_KEY_COLUMNS)}; got {sorted(statement.group_by)}"
            )
    sources = [a.source for a in client.aggregates]
    if len(set(sources)) != len(sources):
        raise QueryValidationError(
            f"the client statement must sum each stream column at most once: {sources}"
        )
    summed = sorted(a.source for a in server.aggregates)
    if summed != sorted(client_values):
        raise QueryValidationError(
            "release pipeline requires the server statement to sum each client column "
            f"exactly once: client columns {sorted(client_values)}, server sums {summed}"
        )

    return QuerySpec(client=client, server=server)


def parse_and_validate(text: str) -> QuerySpec:
    client, server = parse_query(text)
    return validate_split(client, server)


# --------------------------------------------------------------------------
# Pretty printing and translation


def _render_statement(stmt: Statement) -> str:
    items = []
    for item in stmt.items:
        if isinstance(item, Aggregate):
            items.append(f"{item.func}({item.source}) AS {item.alias}")
        else:
            items.append(item.name)
    text = f"SELECT {', '.join(items)} FROM {stmt.table}"
    if stmt.group_by:
        text += f" GROUP BY {', '.join(stmt.group_by)}"
    return text + ";"


def pretty_print(spec: QuerySpec) -> str:
    """Canonical rendering; reparsing it reproduces the same ASTs."""
    return f"{_render_statement(spec.client)}\n\n{_render_statement(spec.server)}\n"


def to_agg_config(spec: QuerySpec) -> AggCoreConfig:
    """Aggregation core configuration for the server statement.

    The core sums the rows that uploads carry: keyed by the client's
    group keys, one value per client sum column, in client order.
    """
    return AggCoreConfig(
        key_columns=spec.client_key_columns,
        value_columns=spec.client_value_columns,
    )
