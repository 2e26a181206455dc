from corrwalk.presets import preset_names, resolve_preset

# The only config fields in which a preset's desk and paper twins may differ.
SCALE_FIELDS = {"realizations", "sizes", "grid_alpha", "grid_beta"}


def stems():
    return sorted({name.rsplit("-", 1)[0] for name in preset_names()})


def test_every_preset_has_a_desk_and_a_paper_twin():
    names = preset_names()
    assert len(names) == 46
    assert names == sorted(f"{stem}-{scale}" for stem in stems() for scale in ("desk", "paper"))


def test_twins_differ_only_in_scale_fields():
    for stem in stems():
        desk, paper = resolve_preset(f"{stem}-desk"), resolve_preset(f"{stem}-paper")
        if stem.startswith("fig1"):
            assert desk == paper, stem
            continue
        assert (desk["command"], desk["description"]) == (paper["command"], paper["description"]), stem
        assert desk["config"].keys() == paper["config"].keys(), stem
        differ = {key for key, value in desk["config"].items() if paper["config"][key] != value}
        assert "realizations" in differ and differ <= SCALE_FIELDS, (stem, differ)


def test_spot_values():
    fig2g = resolve_preset("fig2g-paper")
    assert fig2g["command"] == "run"
    assert fig2g["config"] == {
        "alpha_t": 4.0, "beta_s": 4.0, "realizations": 5000, "seed": 201,
        "N": 1000, "T": 500, "snapshot_times": [50, 200, 500],
    }
    fig3a = resolve_preset("fig3a-paper")["config"]
    assert fig3a["sizes"] == [1000, 2000, 4000, 8000] and fig3a["t_rule"] == "5N"
    assert resolve_preset("fig3a-desk")["config"]["sizes"] == [1000, 2000]
    fig6 = resolve_preset("fig6-paper")
    assert fig6["command"] == "phase-diagram"
    grid = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
    assert fig6["config"] == {
        "grid_alpha": grid, "grid_beta": grid, "sizes": [2000, 4000, 8000, 16000, 32000],
        "realizations": 5000, "seed": 601,
    }
    assert resolve_preset("fig6-desk")["config"]["grid_beta"] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert resolve_preset("fig1c")["config"] == {"nu": 2.0, "length": 200, "seed": 101}
