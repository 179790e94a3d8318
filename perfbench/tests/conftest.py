import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from envinfo import THREAD_ENV  # noqa: E402

os.environ.update(THREAD_ENV)
