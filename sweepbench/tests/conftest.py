"""Make the benchmark's modules importable: they live one level up and
import each other as top-level modules, as ``run.py`` does."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
