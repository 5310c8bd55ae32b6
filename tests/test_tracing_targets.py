"""Every pipeline function the benchmark's tracer wraps still exists.

``bench/tracing.py`` records a target it cannot find as absent and drops
that layer from the per-layer metrics without failing, so a refactor that
renames or deletes a traced function must fail here instead.  The tracer
is imported from the ``bench`` directory as is; ``prepare`` only builds
the wrappers, it installs none.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracing import Tracer  # noqa: E402


def test_every_trace_target_is_present():
    tracer = Tracer().prepare()
    assert tracer.absent == []
