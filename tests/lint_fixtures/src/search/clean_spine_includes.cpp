// Positive fixture: the layering pass MUST accept this file.
//
// A search-layer file reaching down its full allowed spine -- everything
// at or below search in the include DAG, nothing above it.  Never
// compiled.
#include "exact/checked.hpp"
#include "mapping/conflict.hpp"
#include "schedule/interconnect.hpp"
#include "search/procedure51.hpp"
#include "support/fork_join.hpp"
#include "systolic/collision.hpp"

namespace fixture {}
