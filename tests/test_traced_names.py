"""The benchmark's span tracer finds every function it is set to wrap.

``perfbench/spans.py`` looks each name of ``TRACED`` up in its
``jordannum.<module>`` with no default, so a function removed or renamed
there would break ``perfbench/run.py --trace 1``. This reads the table from
the file and changes nothing under ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}"
               for module, names in spans.TRACED.items()
               for name in names
               if not hasattr(importlib.import_module(f"jordannum.{module}"),
                              name)]
    assert missing == []
