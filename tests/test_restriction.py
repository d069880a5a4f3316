from symbreak.checks import check_restriction
from symbreak.graphs import FamilySpec, generate_family


def test_restriction_samples_colorings_from_eleven_vertices():
    # 2**11 + 3**11 colorings are too many to list, so a sample is checked
    assert check_restriction(generate_family(FamilySpec("path", 11)), {5}) is True
