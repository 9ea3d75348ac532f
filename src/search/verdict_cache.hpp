#pragma once

namespace sysmap::search {

/// Inert; kept so sysbench compiles. ROADMAP item 3 deletes it.
struct VerdictCache {};

}  // namespace sysmap::search
