"""gradmult depends on the Python standard library alone."""

import json
import subprocess
import sys
from pathlib import Path

import gradmult

# -S keeps site-packages .pth hooks out, so only what gradmult imports loads
PROBE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import gradmult, gradmult.cli
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_import_loads_only_stdlib_modules():
    src = str(Path(gradmult.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, src],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert "gradmult" in loaded
    foreign = loaded - set(sys.stdlib_module_names) - {"gradmult", "__main__"}
    assert not foreign, f"non-stdlib modules loaded: {sorted(foreign)}"
