import os
import signal
from fnmatch import fnmatch
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def ignore_rules() -> list:
    """(glob, anchored, directories only) per pattern of the root .gitignore;
    a pattern with an inner or leading slash is anchored at the root."""
    path = ROOT / ".gitignore"
    lines = path.read_text().splitlines() if path.exists() else []
    return [(line.strip("/"), "/" in line.rstrip("/"), line.endswith("/"))
            for line in map(str.strip, lines)
            if line and not line.startswith(("#", "!"))]


def tree_state() -> dict:
    """(size, mtime) of every file of the tree outside ``.git`` and the
    paths the root .gitignore names; no git is needed, so exported trees
    work too."""
    rules = ignore_rules()

    def ignored(rel, is_dir):
        name = rel.rsplit("/", 1)[-1]
        return any(fnmatch(rel if anchored else name, glob)
                   for glob, anchored, dir_only in rules
                   if is_dir or not dir_only)

    state = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        rel = Path(dirpath).relative_to(ROOT).as_posix()
        prefix = "" if rel == "." else rel + "/"
        dirnames[:] = [d for d in dirnames
                       if d != ".git" and not ignored(prefix + d, True)]
        for name in filenames:
            if not ignored(prefix + name, False):
                st = os.lstat(os.path.join(dirpath, name))
                state[prefix + name] = (st.st_size, st.st_mtime_ns)
    return state


@pytest.fixture(scope="session", autouse=True)
def tracked_tree_unchanged():
    """Fail the run if a test added, removed or wrote a file of the tree."""
    before = tree_state()
    yield
    after = tree_state()
    changed = sorted(k for k in before.keys() | after.keys()
                     if before.get(k) != after.get(k))
    assert not changed, "tests changed files of the tree: %s" % changed[:10]


@pytest.fixture()
def alarm():
    """Fail, rather than hang, a test that does not finish within 5 s."""
    def expire(signum, frame):
        raise TimeoutError("no result within 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
