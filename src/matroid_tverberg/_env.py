"""On/off switches read from the environment at import time."""

from __future__ import annotations

import os


def env_flag(name):
    """False if the variable ``name`` is ``0``, ``false``, ``off`` or ``no`` (any case); else True."""
    return os.environ.get(name, "1").strip().lower() not in ("0", "false", "off", "no")
