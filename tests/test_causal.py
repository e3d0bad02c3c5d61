from stpalint import (
    PathDirection,
    Severity,
    checklist,
    validate_cfs,
    parse,
    walk_paths,
)
from stpalint.model import CausalFactor, CfCategory

from conftest import tiny_model


def walks_of(model, uca_id, direction):
    uca = model.uca_ids()[uca_id]
    walks, _ = walk_paths(model, uca)
    return [tuple(w.elements) for w in walks if w.direction is direction]


def is_subsequence(needle, haystack):
    it = iter(haystack)
    return all(x in it for x in needle)


# -- walks --------------------------------------------------------------------


def test_tiny_model_walks():
    m = tiny_model()
    assert walks_of(m, "UCA-1", PathDirection.FEEDBACK_PATH) == [("P-1", "S-1", "C-1")]
    assert walks_of(m, "UCA-1", PathDirection.CONTROL_PATH) == [("C-1", "A-1", "P-1")]


def test_open_loop_controller_warns():
    m = tiny_model()
    m.edges = [e for e in m.edges if e.id != "FB-1"]
    uca = m.uca_ids()["UCA-1"]
    walks, diags = walk_paths(m, uca)
    assert [d.rule for d in diags] == ["causal/open-loop"]
    assert diags[0].severity is Severity.WARNING
    assert not [w for w in walks if w.direction is PathDirection.FEEDBACK_PATH]


def test_uca_whose_action_names_no_edge_has_no_open_loop_warning():
    m, _ = parse(
        [
            (
                "dangling.stpa",
                'loss L-1 "l"\nhazard H-1 "h" leads_to [L-1]\n'
                'uca U-1 action = A guide = NotProvided hazards [H-1] "d"\n',
            )
        ]
    )
    assert m.ucas[0].source_controller == ""
    assert walk_paths(m, m.ucas[0]) == ([], [])


def test_corpus_uca1_feedback_walks(corpus):
    walks = walks_of(corpus, "UCA-1", PathDirection.FEEDBACK_PATH)
    assert set(walks) == {
        ("Environment", "Camera", "Encoder", "Network-UL", "Interface", "Display", "Operator"),
        ("Environment", "VehicleDynamics", "IMU", "Network-UL", "Interface", "Display", "Operator"),
        ("Environment", "VehicleDynamics", "SW-Sens", "Network-UL", "Interface", "Display", "Operator"),
    }


def test_corpus_uca1_control_walk(corpus):
    walks = walks_of(corpus, "UCA-1", PathDirection.CONTROL_PATH)
    assert walks == [
        ("Operator", "Brakep", "Interface", "Network-DL", "Actuators", "VehicleDynamics")
    ]


def test_control_walk_follows_the_ucas_own_action(corpus):
    walks = walks_of(corpus, "UCA-1", PathDirection.CONTROL_PATH)
    # the brake pedal, not the steering wheel or throttle, is the first hop
    assert all("Steeringw" not in w and "Throttlep" not in w for w in walks)


def test_walks_are_cycle_free(corpus):
    for uca in corpus.ucas:
        walks, _ = walk_paths(corpus, uca)
        for walk in walks:
            assert len(walk.elements) == len(set(walk.elements))


# -- checklists ---------------------------------------------------------------


def test_checklist_covers_every_walk_element(corpus):
    for uca in corpus.ucas:
        walks, _ = walk_paths(corpus, uca)
        items = checklist(corpus, uca)
        covered = {item.located_at for item in items}
        for walk in walks:
            for element in walk.elements:
                assert element in covered, (uca.id, element)


def test_checklist_uca1_categories(corpus):
    items = checklist(corpus, corpus.uca_ids()["UCA-1"])
    by_entity = {}
    for item in items:
        by_entity.setdefault(item.located_at, set()).add(item.category)
    assert by_entity["Operator"] >= {
        CfCategory.MENTAL_MODEL_CONTENT,
        CfCategory.MENTAL_MODEL_UPDATE,
        CfCategory.CONTROL_ALGORITHM,
    }
    assert CfCategory.SENSING_LIMITATION in by_entity["Camera"]
    assert CfCategory.SENSOR_OPERATION in by_entity["Camera"]
    assert by_entity["Network-UL"] == {CfCategory.TRANSMISSION_LOSS}
    assert by_entity["Interface"] == {CfCategory.PRE_PROCESSING}
    assert by_entity["Display"] == {CfCategory.PRESENTATION}
    assert by_entity["Network-DL"] == {CfCategory.CONTROL_PATH_TRANSMISSION}
    assert CfCategory.ACTUATION_FAILURE in by_entity["Actuators"]
    assert CfCategory.PROCESS_DISTURBANCE in by_entity["VehicleDynamics"]
    # not a wrong-timing UCA: no timing prompts
    assert all(item.category is not CfCategory.TIMING_DELAY for item in items)


def test_checklist_wrong_timing_adds_delay_items(corpus):
    items = checklist(corpus, corpus.uca_ids()["UCA-12"])
    delayed = {item.located_at for item in items if item.category is CfCategory.TIMING_DELAY}
    assert {"Camera", "Network-UL", "Operator", "Display", "Interface"} <= delayed
    # reality itself carries no processing delay
    assert "Environment" not in delayed


def test_checklist_is_deterministic_and_duplicate_free(corpus):
    uca = corpus.uca_ids()["UCA-1"]
    first = checklist(corpus, uca)
    second = checklist(corpus, uca)
    assert first == second
    keys = [(i.category, i.located_at) for i in first]
    assert len(keys) == len(set(keys))


def test_checklist_prompts_use_entity_labels(corpus):
    items = checklist(corpus, corpus.uca_ids()["UCA-1"])
    process = next(i for i in items if i.located_at == "VehicleDynamics")
    assert "Vehicle Dynamics" in process.prompt


# -- validate_cfs -------------------------------------------------------------


def test_corpus_cfs_validate_with_info_only(corpus):
    diags = validate_cfs(corpus)
    assert {d.severity for d in diags} == {Severity.INFO}
    assert {d.rule for d in diags} == {"cf/unaddressed-category"}


def test_off_path_cf_is_an_error(corpus):
    import copy

    m = copy.deepcopy(corpus)
    cf = next(c for c in m.causal_factors if c.id == "CF-16")
    cf.located_at = "Steeringw"  # on no walk of UCA-1
    diags = validate_cfs(m)
    off = [d for d in diags if d.rule == "cf/off-path"]
    assert len(off) == 1 and off[0].severity is Severity.ERROR
    assert "CF-16" in off[0].message


def test_cf_located_on_an_edge_counts_as_on_path():
    m = tiny_model()
    m.causal_factors.append(
        CausalFactor("CF-1", CfCategory.TRANSMISSION_LOSS, "FB-1", ["UCA-1"], "drops data")
    )
    assert not [d for d in validate_cfs(m) if d.rule == "cf/off-path"]


def test_near_duplicate_cfs_warn():
    m = tiny_model()
    m.causal_factors.append(
        CausalFactor("CF-1", CfCategory.SENSOR_OPERATION, "S-1", ["UCA-1"], "Sensor fails!")
    )
    m.causal_factors.append(
        CausalFactor("CF-2", CfCategory.SENSOR_OPERATION, "S-1", ["UCA-1"], "sensor  fails")
    )
    dups = [d for d in validate_cfs(m) if d.rule == "cf/possible-duplicate"]
    assert len(dups) == 1
    assert "CF-2" in dups[0].message and "CF-1" in dups[0].message


def test_unaddressed_categories_reported_per_uca():
    m = tiny_model()
    diags = validate_cfs(m)
    missing = {d.message for d in diags if d.rule == "cf/unaddressed-category"}
    expected = {c.value for c in checklist_categories(m)}
    assert missing == {f"uca UCA-1 has no causal factor in category {c}" for c in expected}


def checklist_categories(model):
    uca = model.uca_ids()["UCA-1"]
    return {item.category for item in checklist(model, uca)}
