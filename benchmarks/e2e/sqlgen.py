"""``Query`` -> SQL text, for the subset the benchmark generates.

``src/`` has a parser but no renderer, and the server only takes text.
Covers conjunctive predicates (comparison, ``IN``, ``BETWEEN``,
``IS [NOT] NULL``) over ``NATURAL JOIN``-ed tables with an optional
``GROUP BY``; anything else raises, so an unsupported query can never
be sent as a silently different one.
"""

from __future__ import annotations


def literal(value):
    """One SQL constant.  The parser's number token has no exponent
    form and its string token no escape, so both are rejected here."""
    if isinstance(value, str):
        if "'" in value:
            raise ValueError(f"cannot render string literal {value!r}")
        return f"'{value}'"
    if isinstance(value, bool) or value is None:
        raise ValueError(f"cannot render literal {value!r}")
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    text = repr(number)
    if "e" in text or "n" in text:  # 1e-05, inf, nan
        raise ValueError(f"cannot render numeric literal {value!r}")
    return text


def predicate(p):
    column = f"{p.table}.{p.column}"
    if p.op in ("IS NULL", "IS NOT NULL"):
        return f"{column} {p.op}"
    if p.op == "IN":
        return f"{column} IN ({', '.join(literal(v) for v in p.value)})"
    if p.op == "BETWEEN":
        low, high = p.value
        return f"{column} BETWEEN {literal(low)} AND {literal(high)}"
    return f"{column} {p.op} {literal(p.value)}"


def render(query):
    """SQL text that ``repro.engine.parser.parse_query`` reads back as
    ``query``."""
    if (query.disjunctions or query.having or query.order
            or query.limit is not None or query.join_kind != "inner"):
        raise ValueError(f"cannot render {query.describe()}")
    aggregate = query.aggregate
    select = (
        "COUNT(*)" if aggregate.function == "COUNT"
        else f"{aggregate.function}({aggregate.table}.{aggregate.column})"
    )
    parts = [f"SELECT {select} FROM {' NATURAL JOIN '.join(query.tables)}"]
    if query.predicates:
        parts.append(
            "WHERE " + " AND ".join(predicate(p) for p in query.predicates)
        )
    if query.group_by:
        parts.append(
            "GROUP BY " + ", ".join(f"{t}.{c}" for t, c in query.group_by)
        )
    return " ".join(parts)
