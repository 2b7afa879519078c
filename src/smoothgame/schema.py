"""Config schema: each key declared once, as ``key -> (kind, default)``, and one checker.

A kind's ``check`` returns the value as given, except that a count read
from JSON may be an integral float such as ``1e5`` and comes back an int.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

REQUIRED = object()


class ConfigError(ValueError):
    """A config value is not of its declared kind; the message names the key."""


@dataclass(frozen=True)
class Count:
    """An integer >= ``least``, and <= ``most`` unless that is None."""

    least: int
    most: int | None = None

    def check(self, key, value, json=False):
        integral = isinstance(value, numbers.Integral) or (
            json and isinstance(value, float) and value % 1 == 0)
        if isinstance(value, bool) or not integral or not (
                value >= self.least and (self.most is None or value <= self.most)):
            most = "" if self.most is None else f" and <= {self.most}"
            raise ConfigError(f"{key} must be an integer >= {self.least}{most}, got {value!r}")
        return int(value)


@dataclass(frozen=True)
class Real:
    """A real number >= ``lo`` (> ``lo`` if ``above``) and <= ``hi``, finite
    unless ``finite`` is False (inf, never NaN). With ``lo`` None any real
    passes, NaN too, for a reader that checks the value itself."""

    lo: float | None
    hi: float = math.inf
    above: bool = False
    finite: bool = True

    def check(self, key, value, json=False):
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
                self.lo is None
                or (self.lo < value if self.above else self.lo <= value) and value <= self.hi
                and (math.isfinite(value) or not self.finite)):
            raise ConfigError(f"{key} must be {self._text()}, got {value!r}")
        return value

    def _text(self) -> str:
        if self.lo is None:
            return "a real number"
        if self.hi < math.inf:
            return f"a real number in {'(' if self.above else '['}{self.lo:g}, {self.hi:g}]"
        bound = f"{'>' if self.above else '>='} {self.lo:g}"
        return f"a real number {bound} and finite" if self.finite else f"{bound} or inf"


@dataclass(frozen=True)
class Choice:
    """One of ``names``; a registry dict offers the names registered so far."""

    names: tuple | dict

    def check(self, key, value, json=False):
        if not isinstance(value, str) or value not in self.names:
            raise ConfigError(f"{key} must be one of {list(self.names)}, got {value!r}")
        return value


@dataclass(frozen=True)
class ListOf:
    kind: object

    def check(self, key, value, json=False):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [self.kind.check(key, v, json) for v in value]


@dataclass(frozen=True)
class Options:
    """A JSON object of the options ``table`` declares, each named ``key[name]``;
    with no table, a player's options, which its factory declares."""

    table: dict | None

    def check(self, key, value, json=False):
        if not isinstance(value, dict):
            raise ConfigError(f"{key} must be a JSON object, got {value!r}")
        return value if self.table is None else check(self.table, value, key, json, key + "[{}]")


def check(table: dict, values, what="config", json=False, name="{}") -> dict:
    """``values`` checked against ``table``, defaults filled in; a None default admits None."""
    if not isinstance(values, dict):
        raise ConfigError(f"{what} must be a JSON object, got {values!r}")
    unknown = sorted(set(values) - set(table), key=str)
    if unknown:
        raise ConfigError(f"unknown {what} keys: {unknown}")
    missing = [k for k, (_, default) in table.items() if default is REQUIRED and k not in values]
    if missing:
        raise ConfigError(f"missing {what} keys: {missing}")
    checked = {}
    for k, (kind, default) in table.items():
        value = values.get(k, default)
        given = k in values and not (value is None and default is None)
        checked[k] = kind.check(name.format(k), value, json) if given else value
    return checked


def key(kind, default=REQUIRED):
    """A dataclass field declared with its kind and default."""
    return field(metadata={"kind": kind}, **({} if default is REQUIRED else {"default": default}))


def table(cls) -> dict:
    """The ``(kind, default)`` table of a dataclass declared with ``key``."""
    return {f.name: (f.metadata["kind"], REQUIRED if f.default is MISSING else f.default)
            for f in fields(cls)}


# the action exponent q, read by the game config and by the players built from it
ACTION_Q = Real(1, finite=False)
