"""Runtime configuration: the limits a caller sets.

Values come from defaults, then an optional ``key=value`` config file,
then environment variables with the ``FREESPLIT_`` prefix.  All knobs are
plain ints; no randomness anywhere.  A segment length below 1, any other
limit below 0, or a horizon shorter than the stability margin
``STABILITY``, raise InvalidInput on construction, also in a copy made by
``dataclasses.replace``.  Limits no caller sets are module constants where
they are used, such as the Whitehead letter budget and the candidate caps;
``STABILITY`` lives here, as the horizon is checked against it.  Inversion
and outer equality are exact, so they take no budget.
"""

from __future__ import annotations

import dataclasses
import os

from .errors import InvalidInput

ENV_PREFIX = "FREESPLIT_"
# limits that may be 0 but never negative
_NONNEGATIVE = ("iterate_cap", "lam_depth_cap", "lam_len_target")
# stability margin s: consecutive iterates a W window must stay inside
STABILITY = 3


@dataclasses.dataclass(frozen=True)
class Config:
    # iteration of graph maps
    iterate_cap: int = 10**6  # max letters in an intermediate path
    # attracting-neighborhood data
    seg_len: int = 64  # defining segment length L
    horizon: int = 40  # iterates scanned forward and backward
    lam_depth_cap: int = 8  # max depth for lamination approximations
    lam_len_target: int = 512  # grow segments at least this long if allowed

    def __post_init__(self):
        if self.seg_len < 1:
            raise InvalidInput("defining segment length must be >= 1")
        if self.horizon < STABILITY:
            raise InvalidInput(f"horizon >= stability margin {STABILITY} required")
        for name in _NONNEGATIVE:
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be >= 0")


def _coerce(name: str, raw: str):
    field = {f.name: f for f in dataclasses.fields(Config)}.get(name)
    if field is None:
        raise InvalidInput(f"unknown config key {name!r}")
    try:
        return int(raw)
    except ValueError as exc:
        raise InvalidInput(f"bad value for {name}: {raw!r}") from exc


def load_config(path: str | None = None, env: dict | None = None) -> Config:
    """Defaults, overridden by a config file, overridden by environment."""
    values = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise InvalidInput(f"cannot read config file: {exc}") from exc
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidInput(f"bad config line: {line!r}")
            key, _, raw = line.partition("=")
            values[key.strip()] = _coerce(key.strip(), raw.strip())
    env = os.environ if env is None else env
    for field in dataclasses.fields(Config):
        raw = env.get(ENV_PREFIX + field.name.upper())
        if raw is not None:
            values[field.name] = _coerce(field.name, raw)
    return Config(**values)


DEFAULT = Config()
