"""The output contracts: ``scripts/contract_digest.py`` against its checked-in output.

Each command of the battery runs in-process once.  A command whose output
holds no floating-point number must give its line of ``contract_digest.txt``
byte for byte.  The others carry oracle residual digits, which may move:
their exit code and command are checked against that file, and their output
with every number masked against ``contract_digest_masked.txt``.  A change
of a line on purpose rewrites both files with the commands in the script's
docstring.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).resolve().with_name("data")


def _script():
    spec = importlib.util.spec_from_file_location(
        "contract_digest", ROOT / "scripts" / "contract_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_contract_digest_is_unchanged():
    script = _script()
    expected = (DATA / "contract_digest.txt").read_text().splitlines()
    masked = {line.split("  ", 2)[2]: line
              for line in (DATA / "contract_digest_masked.txt").read_text().splitlines()}
    seen = []
    for k, (text, run) in enumerate(script.runs()):
        want = expected[k] if k < len(expected) else None
        output, code = script.capture(run)
        where = f"line {k + 1}: {text}"
        if script.RESIDUAL.search(output):
            assert text in masked, f"{where} prints a float but has no masked line"
            assert want is not None and want.split("  ", 1)[1] == f"{code}  {text}", where
            got = script.line(text, script.masked(output), code)
            assert got == masked[text], f"{where} (residuals masked)"
            seen.append(text)
        else:
            assert script.line(text, output, code) == want, where
    assert k + 1 == len(expected), f"{len(expected) - k - 1} expected lines were not produced"
    assert sorted(seen) == sorted(masked)
