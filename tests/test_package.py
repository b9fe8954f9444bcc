import scattertomo


def test_every_exported_name_resolves():
    assert len(set(scattertomo.__all__)) == len(scattertomo.__all__)
    for name in scattertomo.__all__:
        assert getattr(scattertomo, name) is not None, name


def test_one_export_per_optimizer_search():
    exported = set(scattertomo.__all__)
    assert {"maximize_1d", "maximize_ea", "maximize_nea", "OptResult"} <= exported
    assert not {name for name in exported if name.endswith("_batch") or "envelope" in name.lower()}
