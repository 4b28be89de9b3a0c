"""Binary subwords, fence-poset antichains, and snake-graph perfect
matchings, with the explicit bijections between them.

Everything here is immutable after construction and safe to share across
threads; all operations are pure functions.
"""

from .bijections import (
    CorrespondenceRecord,
    antichain_to_subword,
    full_correspondence,
    subword_to_antichain,
)
from .posets import (
    AntichainLabel,
    ExtremaList,
    PiecewisePoset,
    antichain_of_path,
    antichain_trie,
    enumerate_antichains,
    enumerate_order_filters,
    extrema,
    is_antichain,
    is_order_filter,
    min_elements,
    poset_from_word,
    up_closure,
)
from .snake import (
    Edge,
    SnakeGraph,
    enumerate_perfect_matchings,
    filter_region,
    filter_region_block,
    is_perfect_matching,
    matching_for_subword,
    minimal_matching,
    region_boundary,
    sign_assignment,
    sign_sequence_edges,
    snake_from_word,
)
from .trie import TrieNode, iter_nodes, node_count, same_shape
from .words import (
    DEFAULT_CAP,
    BinaryWord,
    Block,
    Embedding,
    enumerate_subwords,
    factor_blocks,
    is_subword,
    leftmost_embedding,
    lrs_subword_trie,
    naive_subword_trie,
    parse_word,
)

__version__ = "0.1.0"
