import types

import numpy as np
import pytest

import synspec
from synspec.errors import as_index


def test_all_lists_each_public_name_once():
    assert len(synspec.__all__) == len(set(synspec.__all__))
    for name in synspec.__all__:
        getattr(synspec, name)
    public = {name for name, value in vars(synspec).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(synspec.__all__) == public


def test_as_index_rejects_booleans():
    # operator.index(True) is 1
    for value in (True, False, np.True_):
        with pytest.raises(synspec.InvalidInputError, match="seed"):
            as_index(value, "seed must be an integer", 0)
    assert as_index(np.int64(3), "seed must be an integer", 0) == 3
