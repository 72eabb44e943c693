import pytest

from qmackey import groups


@pytest.fixture(scope="session")
def corpus_groups():
    return groups.corpus()


@pytest.fixture(scope="session")
def corpus_lattices(corpus_groups):
    return {name: groups.SubgroupLattice(G) for name, G in corpus_groups.items()}


@pytest.fixture(scope="session")
def c6_lattice(corpus_lattices):
    return corpus_lattices["C6"]


@pytest.fixture(scope="session")
def s4_lattice(corpus_lattices):
    return corpus_lattices["S4"]


@pytest.fixture(scope="session")
def s3_lattice(corpus_lattices):
    return corpus_lattices["S3"]


@pytest.fixture(scope="session")
def c2_lattice(corpus_lattices):
    return corpus_lattices["C2"]


# A loop of order 5: identity 0 and two-sided inverses, so of the group axioms only associativity fails.
NON_ASSOCIATIVE_LOOP = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


# Groups past the corpus, from permutation generators, with their subgroup counts.
PAST_CORPUS = {
    "D16": (["(1 2 3 4 5 6 7 8)", "(2 8)(3 7)(4 6)"], 19),
    "C2^4": (["(1 2)", "(3 4)", "(5 6)", "(7 8)"], 67),
    "C4xC4": (["(1 2 3 4)", "(5 6 7 8)"], 15),
    "C2xD8": (["(1 2 3 4)", "(2 4)", "(5 6)"], 35),
    "D24": (["(1 2 3 4 5 6 7 8 9 10 11 12)", "(2 12)(3 11)(4 10)(5 9)(6 8)"], 34),
    "S3xS3": (["(1 2)", "(1 2 3)", "(4 5)", "(4 5 6)"], 60),
    "C2xS4": (["(1 2)", "(1 2 3 4)", "(5 6)"], 98),
}


# Groups near the order-64 cap: every subgroup of C2^5 is its own class; D8xD8 has 389 subgroups in 214 classes.
LARGE_GROUPS = {
    "C2^5": ["(1 2)", "(3 4)", "(5 6)", "(7 8)", "(9 10)"],
    "D8xD8": ["(1 2 3 4)", "(2 4)", "(5 6 7 8)", "(6 8)"],
}


@pytest.fixture(scope="session")
def large_lattices():
    return {name: groups.SubgroupLattice(groups.from_permutations(gens, name=name)) for name, gens in LARGE_GROUPS.items()}


@pytest.fixture(scope="session")
def past_corpus_lattices():
    return {
        name: groups.SubgroupLattice(groups.from_permutations(gens, name=name)) for name, (gens, _) in PAST_CORPUS.items()
    }
