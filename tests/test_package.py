import types

import synspec


def test_all_lists_each_public_name_once():
    assert len(synspec.__all__) == len(set(synspec.__all__))
    for name in synspec.__all__:
        getattr(synspec, name)
    public = {name for name, value in vars(synspec).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert set(synspec.__all__) == public
