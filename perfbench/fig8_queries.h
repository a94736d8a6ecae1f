#ifndef GAPPLY_PERFBENCH_FIG8_QUERIES_H_
#define GAPPLY_PERFBENCH_FIG8_QUERIES_H_

#include <string>

#include "src/common/result.h"
#include "src/plan/logical_plan.h"
#include "src/storage/catalog.h"
#include "src/xml/xquery.h"

namespace gapply::perfbench {

/// The paper's Figure-1 view as the XQuery translator sees it: supplier
/// elements (keyed by ps_suppkey) containing their partsupp ⋈ part rows.
xml::FlwrViewBinding SupplierPartsBinding();

/// Fig. 8 Q1 (per supplier: part names and prices, plus the average price)
/// and Q2 (per supplier: counts of parts above and below the average) in
/// FLWR form. They reach SQL through xml::TranslateToGApplySql.
xml::FlwrQuery FlwrQ1();
xml::FlwrQuery FlwrQ2();

/// Fig. 8 Q3 (per supplier: parts within 3% of the highest and of the
/// lowest price) and Q4 (per supplier and size: parts above the group
/// average) in the paper's §3.1 gapply SQL.
extern const char* const kQ3GApplySql;
extern const char* const kQ4GApplySql;

/// The no-GApply side of Fig. 8 query `q` (0-based): the decorrelated
/// sorted-outer-union plan a classical engine gets from the §2 SQL. The
/// partsupp ⋈ part join is recomputed per union branch and per aggregate,
/// and the result is re-clustered with an ORDER BY.
Result<LogicalOpPtr> Fig8Baseline(const Catalog& catalog, int q);

}  // namespace gapply::perfbench

#endif  // GAPPLY_PERFBENCH_FIG8_QUERIES_H_
