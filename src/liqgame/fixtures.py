"""Bundled data files: names and location, overridable via LIQGAME_FIXTURES."""

from __future__ import annotations

import os
from pathlib import Path

# Bundled market tables by the name load_published_matrix accepts; defined here,
# away from market, so the CLI parser can list them without importing market.
PUBLISHED_TABLES = {
    "final_4x4": "market_final_4x4.csv",
    "intermediate_2x4": "market_intermediate_2x4.csv",
}


def fixture_path(name: str) -> Path:
    override = os.environ.get("LIQGAME_FIXTURES")
    if override:
        return Path(override) / name
    return Path(__file__).parent / "fixtures" / name
