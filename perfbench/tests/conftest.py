import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for entry in (ROOT / "src", BENCH_DIR):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))


@pytest.fixture(autouse=True)
def no_service_delays(monkeypatch):
    """The fake HTTP services answer at once in tests."""
    import spec
    for name in ("LLM_DELAY_S", "KG_DELAY_S", "EMBED_DELAY_S"):
        monkeypatch.setattr(spec, name, 0.0)
