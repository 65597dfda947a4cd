"""One check for every config field, against the domain its annotation declares, such as
``Annotated[int, "[1, inf)"]`` (no bools as numbers, no empty lists). Values are stored as
declared (2.0 as 2, 0 as 0.0, a list as a tuple), so Python and file configs hash alike."""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import is_dataclass
from typing import Annotated, get_args, get_origin, get_type_hints


class ConfigError(ValueError):
    pass


# a config class's field annotations, resolved on first use, once per class
hints = functools.cache(functools.partial(get_type_hints, include_extras=True))


def check(config) -> None:
    """Check every field of a config dataclass and store it as declared."""
    for name, hint in hints(type(config)).items():
        setattr(config, name, checked(name, hint, getattr(config, name)))


def checked(label: str, hint, value, shown=...):
    """value in hint's domain, as hint spells it; errors show shown, the list it is in."""
    shown = value if shown is ... else shown
    base, *interval = get_args(hint) if get_origin(hint) is Annotated else (hint,)
    origin, args = get_origin(base) or base, get_args(base)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        entries = args if origin is tuple and ... not in args else args[:1] * len(value)
        if not value or len(entries) != len(value):
            raise ConfigError(f"{label} must hold {len(entries)} entries, got {shown!r}"
                              if value else f"{label} list is empty")
        return origin(checked(label, h, v, shown) for h, v in zip(entries, value))
    if origin is dict and isinstance(value, dict):
        return {checked(f"{label} key", args[0], k): checked(f"{label}.{k}", args[1], v)
                for k, v in value.items()}
    if (origin in (int, float) and isinstance(value, numbers.Real)
            and not isinstance(value, bool) and math.isfinite(value)
            and (origin is float or value % 1 == 0)):
        value = origin(value)
        for spec in interval:  # such as "[0, 1)"
            lo, hi = spec[1:-1].split(", ")
            if not ((float(lo) <= value if spec[0] == "[" else float(lo) < value)
                    and (value <= float(hi) if spec[-1] == "]" else value < float(hi))):
                bound = (f"be {'>=' if spec[0] == '[' else '>'} {lo}" if hi == "inf"
                         else f"lie in {spec}")
                raise ConfigError(f"{label} must {bound}, got {shown!r}")
        return value
    if is_dataclass(origin) and isinstance(value, origin):
        value.__post_init__()  # its fields may have been edited since it was built
        return value
    if origin in (bool, str) and isinstance(value, origin):
        return value
    kind = {int: "a whole number", float: "a finite number", bool: "true or false",
            str: "a string", list: "a list", tuple: "a list", dict: "a mapping"}.get(
        origin, f"{origin.__name__} options")
    kind = kind if shown is value else f"{kind[2:]}s"  # a list's entries: numbers
    raise ConfigError(f"{label} must be {kind}, got {shown!r}")
