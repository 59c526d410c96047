#ifndef ORDLOG_ORDLOG_H_
#define ORDLOG_ORDLOG_H_

// Umbrella header: the full public API of the ordlog library.
//
// Most applications only need kb/knowledge_base.h (the high-level module /
// query facade); include this header when working with the engine layers
// directly.

#include "base/cancel.h"           // CancelToken (deadlines, cancellation)
#include "base/status.h"           // Status, StatusOr
#include "core/assumption.h"       // assumption sets (Defs. 6-8)
#include "core/enumerate.h"        // brute-force model enumeration
#include "core/exhaustive.h"       // exhaustive models (Prop. 2)
#include "core/interpretation.h"   // 3-valued interpretations
#include "core/least_model.h"      // worklist V∞
#include "core/model_check.h"      // Def. 3 models
#include "core/relevance.h"        // goal-directed queries
#include "core/rule_status.h"      // Def. 2 statuses
#include "core/skeptical.h"        // cautious consequences
#include "core/stable_solver.h"    // Def. 9 stable models
#include "core/total_solver.h"     // Def. 5(a) total models
#include "core/v_operator.h"       // Def. 4 / Thm. 1
#include "ground/grounder.h"       // grounding
#include "ground/herbrand.h"       // Herbrand universe
#include "kb/explain.h"            // derivation traces
#include "kb/knowledge_base.h"     // the high-level facade
#include "lang/analysis.h"         // program statistics, stratification
#include "lang/match.h"            // pattern matching
#include "lang/printer.h"          // rendering
#include "lang/program.h"          // components and ordered programs
#include "parser/parser.h"         // .olp parsing
#include "runtime/model_cache.h"   // generation-keyed model cache
#include "runtime/query_engine.h"  // concurrent serving front-end + metrics
#include "runtime/thread_pool.h"   // worker pool
#include "transform/classical.h"   // classical baselines
#include "transform/negative_direct.h"  // Def. 11
#include "transform/versions.h"    // OV / EV / 3V

#endif  // ORDLOG_ORDLOG_H_
