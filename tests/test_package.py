import types

import lecam


def test_all_lists_every_public_name_once():
    # the import list and __all__ in lecam/__init__.py are two copies of one list
    public = {
        name for name, value in vars(lecam).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(lecam.__all__) == len(set(lecam.__all__))
    assert set(lecam.__all__) == public
