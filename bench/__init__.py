"""The end-to-end benchmark (see ``bench/README.md``).

Imported as the package ``bench`` — never from inside its own directory,
where ``trace.py`` would shadow the standard library's ``trace`` — with
the repository's ``src/`` on the path so ``repro`` resolves without an
install.
"""

import os
import sys

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
