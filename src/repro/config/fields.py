"""Field tables: each input parameter's type, default, range and allowed
values, declared once on the dataclass that holds it.

A field declared with :func:`number`, :func:`integer`, :func:`choice`,
:func:`section`, :func:`like` or :func:`declare` carries a :class:`Rule`
in its ``dataclasses.field`` metadata.  The validators derive from it:
:func:`check` (called from ``__post_init__``) raises
:class:`~repro.errors.ConfigError` for a constructed object;
:func:`field_errors` returns every ``(path, code, message)`` problem of a
raw JSON document — lint findings and service 400 bodies; :func:`build`
raises on those, else constructs the dataclass, and :func:`to_raw` is
its inverse.

Codes: ``unknown-parameter`` (with a typo hint), ``missing-parameter``,
``bad-type`` (a bool is never a number; an integer field rejects
floats), ``bad-enum-value``, ``out-of-range``, ``bad-shape`` and
``empty-axis``.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import MISSING, dataclass
from typing import Any, Optional, Union

from repro.errors import ConfigError

#: The ``dataclasses.field`` metadata key of a field's :class:`Rule`.
RULE = "repro.rule"

#: A range bound: a number, or the name of a sibling field whose value
#: is the bound (``backoff_max_cycles >= backoff_base_cycles``).
Bound = Union[float, str, None]


class FieldError(ConfigError):
    """A :class:`ConfigError` carrying the finding code of its cause."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class Rule:
    """What one field accepts.

    ``kind`` is ``int``, ``number``, ``bool``, ``text``, ``choice``
    (one of ``options``: enum members, spelled in JSON by value, or
    strings), ``shape`` (a dimension list of ``arity`` dims, any if
    ``None``), ``section`` (an object checked by ``cls``'s table),
    ``list`` (values each obeying ``item``, reported at their index) or
    ``axis`` (a non-empty list of values each obeying ``item``).
    Constructed objects hold lists and axes as tuples.  ``optional``
    admits ``None``.
    """

    kind: str
    gt: Bound = None
    ge: Bound = None
    le: Bound = None
    options: tuple = ()
    cls: Optional[type] = None
    item: Optional["Rule"] = None
    arity: Optional[int] = None
    optional: bool = False

    @property
    def tokens(self) -> tuple:
        """A choice's allowed JSON values."""
        return tuple(o.value if isinstance(o, enum.Enum) else o for o in self.options)

    def describe(self) -> str:
        """What a valid value looks like, for messages."""
        if self.kind == "choice":
            return "one of " + ", ".join(map(str, self.tokens))
        return _KIND_NAMES[self.kind]


_KIND_NAMES = {"int": "an integer", "number": "a number", "bool": "true or false",
               "text": "a string", "shape": "a shape like 2x4x4 or a list of integers",
               "section": "an object", "list": "a list", "axis": "a non-empty list"}

#: The Python types of the scalar kinds (bools excepted for numbers).
_TYPES = {"int": int, "number": (int, float), "bool": bool, "text": str}


# -- declaring fields ------------------------------------------------------------


def declare(rule: Rule, default: Any = MISSING, default_factory: Any = MISSING):
    """A dataclass field obeying ``rule``; a ``None`` default makes it
    optional.  No default makes it required in documents."""
    if default is None:
        rule = dataclasses.replace(rule, optional=True)
    return dataclasses.field(default=default, default_factory=default_factory,
                             metadata={RULE: rule})


def number(default: Any = MISSING, *, gt: Bound = None, ge: Bound = None,
           le: Bound = None):
    """A float field (ints accepted)."""
    return declare(Rule("number", gt=gt, ge=ge, le=le), default)


def integer(default: Any = MISSING, *, ge: Bound = None, le: Bound = None,
            optional: bool = False):
    """An int field; ``optional`` admits ``None`` besides the default."""
    return declare(Rule("int", ge=ge, le=le, optional=optional), default)


def choice(options, default: Any = MISSING):
    """One of ``options``: an enum class (every member), or members or strings."""
    return declare(Rule("choice", options=tuple(options)), default)


def section(cls: type, default: Any = MISSING, default_factory: Any = MISSING):
    """A nested object checked by ``cls``'s own table."""
    return declare(Rule("section", cls=cls), default, default_factory)


def like(cls: type, name: str, default: Any = MISSING):
    """The rule of ``cls``'s field ``name``, with a new default."""
    return declare(rules(cls)[name], default)


# -- reading the tables ----------------------------------------------------------


_TABLES: dict[type, dict[str, Rule]] = {}


def rules(cls: type) -> dict[str, Rule]:
    """``cls``'s field table, name to rule, in declaration order
    (resolved once per class)."""
    table = _TABLES.get(cls)
    if table is None:
        table = _TABLES[cls] = {f.name: f.metadata[RULE] for f in dataclasses.fields(cls)}
    return table


# -- the checks ------------------------------------------------------------------


def did_you_mean(key: str, known) -> str:
    """A typo hint for ``key``: the shortest known name sharing its first
    or last four characters, as `` (did you mean 'x'?)``, else ``""``."""
    candidates = [k for k in known if k.startswith(key[:4]) or k.endswith(key[-4:])]
    return f" (did you mean {min(sorted(candidates), key=len)!r}?)" if candidates else ""


def unknown_keys(data: dict, known, path: str = "") -> list[tuple[str, str, str]]:
    """``unknown-parameter`` errors for the keys of ``data`` not in ``known``."""
    return [(_join(path, key), "unknown-parameter",
             f"unknown parameter{did_you_mean(str(key), known)}")
            for key in data if key not in known]


def parse_shape(value: Any, arity: Optional[int] = None) -> tuple[int, ...]:
    """Parse ``"2x4x4"`` or ``[2, 4, 4]`` into a dimension tuple.

    Bools are not dimensions, every dimension is >= 1 and, when
    ``arity`` is given, there are exactly that many.  Raises
    :class:`FieldError` (``bad-shape``, ``bad-type`` or ``out-of-range``).
    """
    if isinstance(value, str):
        try:
            dims = tuple(int(tok) for tok in value.lower().split("x"))
        except ValueError:
            raise FieldError("bad-shape", f"bad shape {value!r}; expected integers "
                                          f"joined by 'x', e.g. 2x4x4 or 4x16") from None
    elif isinstance(value, (list, tuple)) and value and all(
            isinstance(d, int) and not isinstance(d, bool) for d in value):
        dims = tuple(value)
    else:
        raise FieldError("bad-type", f"must be a shape string like '2x4x4' or a "
                                     f"list of integers, got {value!r}")
    if arity is not None and len(dims) != arity:
        raise FieldError("bad-shape", f"shape {value!r} must have {arity} "
                                      f"dimensions, got {len(dims)}")
    if any(d < 1 for d in dims):
        raise FieldError("out-of-range", f"shape dimensions must be >= 1, got {value!r}")
    return dims


def field_errors(cls: type, data: Any, path: str = "") -> list[tuple[str, str, str]]:
    """Every ``(path, code, message)`` problem of raw document ``data``
    against ``cls``'s table; paths are dotted from ``path``."""
    if not isinstance(data, dict):
        return [(path, "bad-type", f"must be an object, got {type(data).__name__}")]
    table = rules(cls)
    errors = unknown_keys(data, table, path)
    errors.extend((_join(path, f.name), "missing-parameter",
                   f"required; {table[f.name].describe()}")
                  for f in dataclasses.fields(cls) if f.name not in data
                  and f.default is MISSING and f.default_factory is MISSING)
    for name, value in data.items():
        if name in table:
            errors.extend(_value_errors(table[name], value, _join(path, name),
                                        cls, data, raw=True))
    return errors


def check(obj: Any) -> None:
    """Raise :class:`ConfigError` if constructed ``obj`` breaks its table."""
    cls = type(obj)
    errors = []
    for name, rule in rules(cls).items():
        errors.extend(_value_errors(rule, getattr(obj, name), name, cls, obj, raw=False))
    if errors:
        raise _error(cls, errors)


def build(cls: type, data: Any, path: str = ""):
    """Construct ``cls`` from raw document ``data``, raising
    :class:`ConfigError` with every field error first."""
    errors = field_errors(cls, data, path)
    if errors:
        raise _error(cls, errors)
    return _construct(cls, data)


def to_raw(obj: Any) -> dict[str, Any]:
    """The JSON document :func:`build` turns back into ``obj``."""
    return {name: _raw(getattr(obj, name)) for name in rules(type(obj))}


def _error(cls: type, errors) -> ConfigError:
    return ConfigError(f"invalid {cls.__name__}: " + "; ".join(
        f"{path}: {message}" if path else message for path, _code, message in errors))


def _raw(value: Any) -> Any:
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return to_raw(value) if dataclasses.is_dataclass(value) else value


def _construct(cls: type, data: dict):
    table = rules(cls)
    return cls(**{name: _convert(table[name], value) for name, value in data.items()})


def _convert(rule: Rule, value: Any) -> Any:
    """A checked JSON value as the field holds it."""
    if value is None:
        return None
    if rule.kind == "number":
        return float(value)
    if rule.kind == "choice":
        return rule.options[rule.tokens.index(value)]
    if rule.kind == "section":
        return _construct(rule.cls, value)
    if rule.kind == "shape":
        return parse_shape(value, rule.arity)
    if rule.kind in ("list", "axis"):
        return tuple(_convert(rule.item, v) for v in value)
    return value


def _join(path: str, name: Any) -> str:
    return f"{path}.{name}" if path else str(name)


def _value_errors(rule: Rule, value: Any, where: str, cls: type, siblings: Any,
                  raw: bool) -> list[tuple[str, str, str]]:
    """Problems of one value.  ``raw`` values come from JSON (enum tokens,
    shape strings, section dicts); otherwise from a constructed object."""
    kind = rule.kind
    if value is None:
        return [] if rule.optional else [
            (where, "bad-type", f"must be {rule.describe()}, got None")]
    if kind in _TYPES:
        if not isinstance(value, _TYPES[kind]) or (
                kind != "bool" and isinstance(value, bool)):
            return [(where, "bad-type", f"must be {rule.describe()}, got {value!r}")]
        return _range_errors(rule, value, where, cls, siblings, raw)
    if kind == "choice":
        if value in (rule.tokens if raw else rule.options):
            return []
        return [(where, "bad-enum-value",
                 f"got {value!r}; allowed values: " + ", ".join(map(str, rule.tokens)))]
    if kind == "shape":
        try:
            parse_shape(value, rule.arity)
        except FieldError as exc:
            return [(where, exc.code, str(exc))]
        return []
    if kind == "section":
        if raw:
            return field_errors(rule.cls, value, where)
        return [] if isinstance(value, rule.cls) else [
            (where, "bad-type", f"must be a {rule.cls.__name__}, got {value!r}")]
    if not isinstance(value, list if raw else tuple):
        return [(where, "bad-type", f"must be {rule.describe()}, got {value!r}")]
    if kind == "list":
        return [error for i, item in enumerate(value)
                for error in _value_errors(rule.item, item, f"{where}[{i}]", cls, siblings, raw)]
    if not value:
        return [(where, "empty-axis", "axis has no values; drop it to use the default range")]
    return [error for item in value
            for error in _value_errors(rule.item, item, where, cls, siblings, raw)]


def _range_errors(rule: Rule, value: Any, where: str, cls: type, siblings: Any,
                  raw: bool) -> list[tuple[str, str, str]]:
    """``out-of-range`` when ``value`` breaks the rule's bounds; the
    message states the whole range."""
    low_bound = rule.ge if rule.gt is None else rule.gt
    low = _bound(low_bound, cls, siblings, raw)
    high = _bound(rule.le, cls, siblings, raw)
    too_low = low is not None and (value <= low if rule.gt is not None else value < low)
    if not too_low and (high is None or value <= high):
        return []
    if low is not None and high is not None:
        wanted = (f"in {'(' if rule.gt is not None else '['}{_bound_text(low_bound, low)}, "
                  f"{_bound_text(rule.le, high)}]")
    elif low is not None:
        wanted = f"{'>' if rule.gt is not None else '>='} {_bound_text(low_bound, low)}"
    else:
        wanted = f"<= {_bound_text(rule.le, high)}"
    return [(where, "out-of-range", f"must be {wanted}, got {value!r}")]


def _bound(bound: Bound, cls: type, siblings: Any, raw: bool):
    """The value of a bound.  A sibling-field bound reads the same
    document or object, and is skipped unless that value is a number."""
    if not isinstance(bound, str):
        return bound
    value = (siblings.get(bound, getattr(cls, bound)) if raw
             else getattr(siblings, bound))
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return None
    return value


def _bound_text(bound: Bound, value: Any) -> str:
    """A bound as range messages state it: ``1`` or ``name (500)``."""
    return f"{bound} ({value:g})" if isinstance(bound, str) else f"{value:g}"
