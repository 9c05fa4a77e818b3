"""Check that `import ustep` loads the miner only.

Run in a fresh interpreter against whichever `ustep` the path finds:

    PYTHONPATH=src python tests/import_check.py

It exits non-zero if `import ustep` loads the evaluation harness, `json`,
`dataclasses`, `inspect` or a pool module; if `ustep.__all__` lists
`update_template`, or a name in it does not resolve to the object its
defining module holds; if a snapshot does not round-trip; if `import
ustep.cli` loads the evaluation harness, `csv`, `dataclasses`, `inspect`,
`statistics` or a pool module; or if resolving the evaluation exports
loads `statistics` or a pool module.  Only the modules these imports add count,
not those `site` loaded before, so where the path finds `ustep` without
`site`, run it under `python -S` as well.
"""

import sys

before = set(sys.modules)
import ustep  # noqa: E402

added = set(sys.modules) - before
eager = {"ustep.evaluation", "json", "csv", "statistics", "numpy",
         "dataclasses", "inspect", "concurrent.futures",
         "multiprocessing"} & added
assert not eager, f"import ustep loaded {sorted(eager)}"

# before the checks below resolve the evaluation exports
import ustep.cli  # noqa: E402

late = {"ustep.evaluation", "csv", "dataclasses", "inspect", "statistics",
        "numpy", "concurrent.futures", "multiprocessing"} & (
    set(sys.modules) - before)
assert not late, f"import ustep.cli loaded {sorted(late)}"

# only a miner widens its own templates, through ustep.miner
assert "update_template" not in ustep.__all__, "ustep exports update_template"

missing = set(ustep.__all__) - set(dir(ustep))
assert not missing, f"dir(ustep) lacks {sorted(missing)}"

try:
    ustep.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("ustep.no_such_name did not raise AttributeError")

star = {}
exec("from ustep import *", star)
for name in ustep.__all__:
    value = getattr(ustep, name)
    # WILDCARD, a str, has no __module__
    home = sys.modules[getattr(value, "__module__", "ustep.tokens")]
    assert getattr(home, name) is value, \
        f"ustep.{name} is not {home.__name__}.{name}"
    assert star[name] is value, f"from ustep import * did not bind {name}"

miner = ustep.Miner(ustep.MinerConfig())
for line in ("open file a.txt", "open file b.txt", "close file a.txt"):
    miner.process_message(line)
data = miner.snapshot()
assert ustep.Miner.restore(data).snapshot() == data, \
    "snapshot did not round-trip"

# the evaluation exports resolved above; statistics waits for the first
# robustness_stats call and the pools for the first parallel run
assert "ustep.evaluation" in sys.modules, "the exports did not resolve"
loaded = {"statistics", "numpy", "concurrent.futures",
          "multiprocessing"} & (set(sys.modules) - before)
assert not loaded, f"ustep.evaluation loaded {sorted(loaded)}"
