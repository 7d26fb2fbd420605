"""Config field rules: each field declares its rule once with ``rule``, and
``Config.__post_init__`` holds every construction of a config to them. This
module imports nothing of the package, so every config's module can use it."""

import dataclasses
import functools
import math


class ConfigError(ValueError):
    """A scenario document or config failed validation; message names the field."""


class FieldError(ConfigError):
    """The value at ``path`` breaks a rule, for ``reason``."""

    def __init__(self, path, reason):
        super().__init__(f"{path}: {reason}")
        self.path, self.reason = path, reason


def check_number(value, path, positive=False, integer=False, most=None):
    """A document number: finite, positive or else non-negative, and at
    most ``most`` if given. With ``integer`` it must be an int and stays
    one; otherwise it is returned as a float. Bools are not numbers."""
    is_number = (isinstance(value, int if integer else (int, float))
                 and not isinstance(value, bool))
    if not (is_number or integer):
        raise FieldError(path, f"expected a number, got {value!r}")
    try:
        number = float(value) if is_number else math.nan
    except OverflowError:
        if not integer:
            raise FieldError(path, "expected a number, got an int too "
                             "large for a float") from None
        number = math.inf
    if not (math.isfinite(number) and (number > 0 if positive else number >= 0)
            and (most is None or number <= most)):
        kind = "positive" if positive else "non-negative"
        limit = "" if most is None else f" up to {most}"
        raise FieldError(path, f"expected a {kind} "
                         f"{'int' if integer else 'number'}{limit}, got {value!r}")
    return value if integer else number


def check_string(value, path):
    if not isinstance(value, str):
        raise FieldError(path, f"expected a string, got {value!r}")
    return value


def check_file_name(value, path):
    """One path component: not "", "." or "..", no "/", NUL or whitespace."""
    if (set("/\0") & set(check_string(value, path)) or value in (".", "..")
            or value.split() != [value]):
        raise FieldError(path, "expected a file name without '/', NUL or "
                         f"whitespace, got {value!r}")
    return value


def check_type(value, path, kind):
    """A value of class kind, held as it is."""
    if not isinstance(value, kind):
        got = "None" if value is None else type(value).__name__
        raise FieldError(path, f"expected {kind.__name__}, got {got}")
    return value


def rule(default=dataclasses.MISSING, check=check_number, **kwargs):
    """A config field whose value must pass check(value, name, **kwargs)."""
    return dataclasses.field(default=default, metadata={
        "rule": functools.partial(check, **kwargs)})


class Config:
    """A dataclass config whose fields meet their rules, in field order, on
    every construction; a subclass with rules spanning fields calls this first."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if "rule" in f.metadata:
                # configs are frozen; a number field stores an int as a float
                object.__setattr__(self, f.name, f.metadata["rule"](
                    getattr(self, f.name), f.name))
