import re
from pathlib import Path

import latentskip

# core.mean and core.stats are the package's only moments; a direct NumPy call elsewhere
# would define a second convention and skip the bitwise property held in test_core.
MOMENT_CALL = re.compile(r"np\.mean\(|np\.std\(|np\.var\(|\.mean\(|\.std\(")


def test_moments_come_from_core():
    package = Path(latentskip.__file__).parent
    sources = sorted(p for p in package.glob("*.py") if p.name != "core.py")
    assert sources, f"no modules found in {package}"
    hits = [f"{path.name}:{lineno}: {line.strip()}"
            for path in sources
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if MOMENT_CALL.search(line)]
    assert not hits, "compute moments with core.mean / core.stats:\n" + "\n".join(hits)
