"""Citation/authorship property graph: papers, authors, venues.

Recommender-style traversals (the paper's citation [7]) over scholarly
data: papers cite papers, authors write papers, venues publish papers.
Communities form naturally because citation is preferential within a
field, so co-authorship and citation-chain queries are structure-heavy.
"""

from __future__ import annotations

import random

from repro.graph.labelled import LabelledGraph
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload

PAPER, AUTHOR, VENUE = "paper", "author", "venue"


def citation_network(
    n_papers: int = 150,
    *,
    n_authors: int | None = None,
    n_venues: int = 6,
    citations_per_paper: int = 3,
    authors_per_paper: int = 2,
    rng: random.Random,
) -> LabelledGraph:
    """Generate the citation property graph.

    Papers arrive in order and cite earlier papers preferentially (highly
    cited papers attract more citations); authors are reused with
    preferential attachment too (prolific authors keep publishing).
    """
    if n_papers < 2:
        raise ValueError("need at least 2 papers")
    author_count = n_authors if n_authors is not None else max(4, n_papers // 3)
    graph = LabelledGraph()

    venues = [f"v{i}" for i in range(n_venues)]
    for venue in venues:
        graph.add_vertex(venue, VENUE)
    authors = [f"a{i}" for i in range(author_count)]
    for author in authors:
        graph.add_vertex(author, AUTHOR)

    cited_pool: list[str] = []
    author_pool: list[str] = list(authors)
    for index in range(n_papers):
        paper = f"p{index}"
        graph.add_vertex(paper, PAPER)
        graph.add_edge(paper, venues[index % n_venues])
        # Citations: preferential over earlier papers.
        if cited_pool:
            targets = set()
            for _ in range(min(citations_per_paper, index)):
                targets.add(rng.choice(cited_pool))
            for target in sorted(targets):
                graph.add_edge(paper, target)
                cited_pool.append(target)
        cited_pool.append(paper)
        # Authorship: preferential over authors.
        writers = set()
        for _ in range(authors_per_paper):
            writers.add(rng.choice(author_pool))
        for writer in sorted(writers):
            graph.add_edge(paper, writer)
            author_pool.append(writer)

    return graph


def citation_workload(*, skew: float = 1.0) -> Workload:
    """The scholarly-search query mix.

    * ``related``   -- paper-paper-paper citation chain (related work);
    * ``coauthors`` -- author-paper-author (collaboration lookup);
    * ``expertise`` -- author-paper-paper (what an author's work builds on);
    * ``venue_mix`` -- venue-paper-author (programme-committee mining).
    """
    related = LabelledGraph.path([PAPER, PAPER, PAPER])
    coauthors = LabelledGraph.path([AUTHOR, PAPER, AUTHOR])
    expertise = LabelledGraph.path([AUTHOR, PAPER, PAPER])
    venue_mix = LabelledGraph.path([VENUE, PAPER, AUTHOR])
    weights = [1.0 / (rank ** skew) for rank in range(1, 5)]
    return Workload(
        [
            PatternQuery("related", related, weights[0]),
            PatternQuery("coauthors", coauthors, weights[1]),
            PatternQuery("expertise", expertise, weights[2]),
            PatternQuery("venue_mix", venue_mix, weights[3]),
        ]
    )
