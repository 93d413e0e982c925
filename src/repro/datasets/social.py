"""Social-network property graph: users, posts, comments, pages.

Shape: a preferential-attachment friendship backbone over ``user``
vertices; users author ``post`` vertices; other users attach ``comment``
vertices to posts; users follow ``page`` vertices.  Every interaction is a
labelled edge-path a workload query can traverse, so the generated graph
is dense in exactly the motifs :func:`social_workload` asks for -- the
regime the paper's introduction describes for online GDBMS queries.

Vertex ids are prefixed strings (``u12``, ``p3``, ``c7``, ``g2``) so that
partition assignments remain human-readable in examples.
"""

from __future__ import annotations

import random

from repro.graph.labelled import LabelledGraph
from repro.workload.query import PatternQuery
from repro.workload.workloads import Workload

USER, POST, COMMENT, PAGE = "user", "post", "comment", "page"


def social_network(
    n_users: int = 100,
    *,
    posts_per_user: float = 1.2,
    comments_per_post: float = 1.5,
    pages: int | None = None,
    follows_per_user: float = 1.0,
    rng: random.Random,
) -> LabelledGraph:
    """Generate the social property graph.

    ``posts_per_user`` / ``comments_per_post`` / ``follows_per_user`` are
    means of geometric counts, so activity is skewed the way real feeds
    are: most users post little, a few post a lot.
    """
    if n_users < 2:
        raise ValueError("need at least 2 users")
    graph = LabelledGraph()
    page_count = pages if pages is not None else max(2, n_users // 20)

    users = [f"u{i}" for i in range(n_users)]
    for user in users:
        graph.add_vertex(user, USER)

    # Friendship backbone: preferential attachment over users.
    repeated: list[str] = [users[0], users[1]]
    graph.add_edge(users[0], users[1])
    for user in users[2:]:
        friends = {rng.choice(repeated)}
        while rng.random() < 0.4:  # occasional extra friendships
            friends.add(rng.choice(repeated))
        for friend in sorted(friends):
            if friend != user and not graph.has_edge(user, friend):
                graph.add_edge(user, friend)
                repeated.extend((user, friend))

    def geometric(mean: float) -> int:
        if mean <= 0:
            return 0
        p = 1.0 / (1.0 + mean)
        count = 0
        while rng.random() > p:
            count += 1
        return count

    # Posts and comments.
    post_index = 0
    comment_index = 0
    for user in users:
        for _ in range(geometric(posts_per_user)):
            post = f"p{post_index}"
            post_index += 1
            graph.add_vertex(post, POST)
            graph.add_edge(user, post)
            for _ in range(geometric(comments_per_post)):
                commenter = rng.choice(users)
                comment = f"c{comment_index}"
                comment_index += 1
                graph.add_vertex(comment, COMMENT)
                graph.add_edge(post, comment)
                graph.add_edge(comment, commenter)

    # Pages followed by users.
    for page_id in range(page_count):
        page = f"g{page_id}"
        graph.add_vertex(page, PAGE)
    for user in users:
        for _ in range(geometric(follows_per_user)):
            graph.add_edge(user, f"g{rng.randrange(page_count)}")

    return graph


def social_workload(*, skew: float = 1.0) -> Workload:
    """The query mix a social app runs, Zipf-weighted.

    * ``feed``      -- user, their post, a comment on it (timeline render);
    * ``thread``    -- post-comment-user-post: who commented and what else
                       they posted (engagement expansion);
    * ``mutuals``   -- user-user-user wedge (friend recommendation);
    * ``page_fans`` -- page-user-user (page audience expansion).
    """
    feed = LabelledGraph.path([USER, POST, COMMENT])
    thread = LabelledGraph.path([POST, COMMENT, USER, POST])
    mutuals = LabelledGraph.path([USER, USER, USER])
    page_fans = LabelledGraph.path([PAGE, USER, USER])
    weights = [1.0 / (rank ** skew) for rank in range(1, 5)]
    return Workload(
        [
            PatternQuery("feed", feed, weights[0]),
            PatternQuery("thread", thread, weights[1]),
            PatternQuery("mutuals", mutuals, weights[2]),
            PatternQuery("page_fans", page_fans, weights[3]),
        ]
    )
