#ifndef TREESIM_TREESIM_H_
#define TREESIM_TREESIM_H_

/// Umbrella header for the treesim library: similarity evaluation on
/// tree-structured data via the binary branch embedding of
/// Yang, Kalnis & Tung (SIGMOD 2005), with exact tree edit distance,
/// histogram filter baselines and a filter-and-refine search engine.

#include "core/binary_branch.h"    // IWYU pragma: export
#include "core/binary_tree.h"      // IWYU pragma: export
#include "core/branch_profile.h"   // IWYU pragma: export
#include "core/inverted_file.h"    // IWYU pragma: export
#include "core/positional.h"       // IWYU pragma: export
#include "datagen/dblp_generator.h"       // IWYU pragma: export
#include "datagen/edit_noise.h"           // IWYU pragma: export
#include "datagen/synthetic_generator.h"  // IWYU pragma: export
#include "filters/bibranch_filter.h"   // IWYU pragma: export
#include "filters/filter_index.h"      // IWYU pragma: export
#include "filters/histogram_filter.h"  // IWYU pragma: export
#include "filters/sequence_filter.h"   // IWYU pragma: export
#include "search/clustering.h"         // IWYU pragma: export
#include "search/pairwise.h"           // IWYU pragma: export
#include "search/query_stats.h"        // IWYU pragma: export
#include "search/similarity_join.h"    // IWYU pragma: export
#include "search/similarity_search.h"  // IWYU pragma: export
#include "search/tree_database.h"      // IWYU pragma: export
#include "strgram/qgram.h"                  // IWYU pragma: export
#include "strgram/string_edit_distance.h"   // IWYU pragma: export
#include "ted/bounded_ted.h"           // IWYU pragma: export
#include "ted/cost_model.h"            // IWYU pragma: export
#include "ted/edit_mapping.h"          // IWYU pragma: export
#include "ted/edit_operation.h"        // IWYU pragma: export
#include "ted/edit_script_synthesis.h" // IWYU pragma: export
#include "ted/naive_ted.h"       // IWYU pragma: export
#include "ted/zhang_shasha.h"    // IWYU pragma: export
#include "tree/bracket.h"           // IWYU pragma: export
#include "tree/forest_io.h"         // IWYU pragma: export
#include "tree/label_dictionary.h"  // IWYU pragma: export
#include "tree/traversal.h"         // IWYU pragma: export
#include "tree/tree.h"              // IWYU pragma: export
#include "util/flags.h"     // IWYU pragma: export
#include "util/random.h"    // IWYU pragma: export
#include "util/safe_math.h" // IWYU pragma: export
#include "util/status.h"    // IWYU pragma: export
#include "util/stopwatch.h" // IWYU pragma: export
#include "util/sync.h"         // IWYU pragma: export
#include "util/thread_pool.h"  // IWYU pragma: export
#include "xml/xml_corpus.h" // IWYU pragma: export
#include "xml/xml_parser.h" // IWYU pragma: export

#endif  // TREESIM_TREESIM_H_
