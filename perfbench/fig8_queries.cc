#include "perfbench/fig8_queries.h"

#include <utility>
#include <vector>

#include "src/plan/builder.h"

namespace gapply::perfbench {

xml::FlwrViewBinding SupplierPartsBinding() {
  xml::FlwrViewBinding view;
  view.child_from = "partsupp, part";
  view.child_where = "ps_partkey = p_partkey";
  view.parent_key = "ps_suppkey";
  view.key_table = "partsupp";
  return view;
}

xml::FlwrQuery FlwrQ1() {
  // Return <ret> for $p in $s/part return $p/p_name, $p/p_retailprice,
  //              avg($s/part/p_retailprice) </ret>
  xml::FlwrQuery q;
  xml::FlwrReturnItem parts;
  parts.kind = xml::FlwrReturnItem::Kind::kChildColumns;
  parts.columns = {"p_name", "p_retailprice"};
  q.ret.push_back(parts);
  xml::FlwrReturnItem avg;
  avg.kind = xml::FlwrReturnItem::Kind::kAggregate;
  avg.agg = AggKind::kAvg;
  avg.agg_column = "p_retailprice";
  q.ret.push_back(avg);
  return q;
}

xml::FlwrQuery FlwrQ2() {
  // Return <ret> count($s/part[p_retailprice >= avg(...)]),
  //              count($s/part[p_retailprice <  avg(...)]) </ret>
  xml::FlwrQuery q;
  for (BinaryOp cmp : {BinaryOp::kGe, BinaryOp::kLt}) {
    xml::FlwrReturnItem item;
    item.kind = xml::FlwrReturnItem::Kind::kCountCompareAgg;
    item.agg = AggKind::kAvg;
    item.agg_column = "p_retailprice";
    item.cmp = cmp;
    q.ret.push_back(item);
  }
  return q;
}

const char* const kQ3GApplySql =
    "select gapply(select p_name, p_retailprice from g "
    "              where p_retailprice >= "
    "                    (select max(p_retailprice) from g) * 0.97 "
    "              union all "
    "              select p_name, p_retailprice from g "
    "              where p_retailprice <= "
    "                    (select min(p_retailprice) from g) * 1.03) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey : g";

const char* const kQ4GApplySql =
    "select gapply(select p_name, p_retailprice from g "
    "              where p_retailprice > "
    "                    (select avg(p_retailprice) from g)) "
    "from partsupp, part where ps_partkey = p_partkey "
    "group by ps_suppkey, p_size : g";

namespace {

PlanBuilder PartsuppPart(const Catalog& catalog) {
  return PlanBuilder::Scan(catalog, "partsupp")
      .Join(PlanBuilder::Scan(catalog, "part"), {"ps_partkey"},
            {"p_partkey"});
}

// Renames the grouped aggregates so later joins cannot confuse the key
// with the probe side's ps_suppkey.
PlanBuilder SupplierAverages(const Catalog& catalog) {
  return PartsuppPart(catalog)
      .GroupBy({"ps_suppkey"},
               {{AggKind::kAvg, "p_retailprice", "avgp", false}})
      .ProjectExprs(
          [](const Schema& s) {
            std::vector<ExprPtr> e;
            e.push_back(Col(s, "ps_suppkey"));
            e.push_back(Col(s, "avgp"));
            return e;
          },
          {"sk_avg", "avgp"});
}

Result<LogicalOpPtr> Q1Baseline(const Catalog& catalog) {
  auto detail = PartsuppPart(catalog).ProjectExprs(
      [](const Schema& s) {
        std::vector<ExprPtr> e;
        e.push_back(Col(s, "ps_suppkey"));
        e.push_back(Col(s, "p_name"));
        e.push_back(Col(s, "p_retailprice"));
        e.push_back(Lit(Value::Null()));
        return e;
      },
      {"ps_suppkey", "p_name", "p_retailprice", "avg_price"});
  auto averages =
      PartsuppPart(catalog)
          .GroupBy({"ps_suppkey"},
                   {{AggKind::kAvg, "p_retailprice", "avgp", false}})
          .ProjectExprs(
              [](const Schema& s) {
                std::vector<ExprPtr> e;
                e.push_back(Col(s, "ps_suppkey"));
                e.push_back(Lit(Value::Null()));
                e.push_back(Lit(Value::Null()));
                e.push_back(Col(s, "avgp"));
                return e;
              },
              {"ps_suppkey", "p_name", "p_retailprice", "avg_price"});
  std::vector<PlanBuilder> branches;
  branches.push_back(std::move(detail));
  branches.push_back(std::move(averages));
  return PlanBuilder::UnionAll(std::move(branches))
      .OrderBy({"ps_suppkey"})
      .Build();
}

Result<LogicalOpPtr> Q2Baseline(const Catalog& catalog) {
  auto branch = [&](bool above) {
    return PartsuppPart(catalog)
        .Join(SupplierAverages(catalog), {"ps_suppkey"}, {"sk_avg"})
        .Select([&](const Schema& s) {
          return above ? Ge(Col(s, "p_retailprice"), Col(s, "avgp"))
                       : Lt(Col(s, "p_retailprice"), Col(s, "avgp"));
        })
        .GroupBy({"ps_suppkey"}, {{AggKind::kCountStar, "", "c", false}})
        .ProjectExprs(
            [&](const Schema& s) {
              std::vector<ExprPtr> e;
              e.push_back(Col(s, "ps_suppkey"));
              if (above) {
                e.push_back(Col(s, "c"));
                e.push_back(Lit(Value::Null()));
              } else {
                e.push_back(Lit(Value::Null()));
                e.push_back(Col(s, "c"));
              }
              return e;
            },
            {"ps_suppkey", "count_above", "count_below"});
  };
  std::vector<PlanBuilder> branches;
  branches.push_back(branch(true));
  branches.push_back(branch(false));
  return PlanBuilder::UnionAll(std::move(branches))
      .OrderBy({"ps_suppkey"})
      .Build();
}

Result<LogicalOpPtr> Q3Baseline(const Catalog& catalog) {
  // Each branch re-derives the per-supplier extremes, as the
  // sorted-outer-union SQL would.
  auto make_extremes = [&]() {
    return PartsuppPart(catalog)
        .GroupBy({"ps_suppkey"},
                 {{AggKind::kMax, "p_retailprice", "maxp", false},
                  {AggKind::kMin, "p_retailprice", "minp", false}})
        .ProjectExprs(
            [](const Schema& s) {
              std::vector<ExprPtr> e;
              e.push_back(Col(s, "ps_suppkey"));
              e.push_back(Col(s, "maxp"));
              e.push_back(Col(s, "minp"));
              return e;
            },
            {"sk_mm", "maxp", "minp"});
  };
  auto make_branch = [&](bool high) {
    return PartsuppPart(catalog)
        .Join(make_extremes(), {"ps_suppkey"}, {"sk_mm"})
        .Select([&](const Schema& s) -> ExprPtr {
          if (high) {
            return Ge(Col(s, "p_retailprice"),
                      Binary(BinaryOp::kMultiply, Col(s, "maxp"),
                             Lit(0.97)));
          }
          return Le(Col(s, "p_retailprice"),
                    Binary(BinaryOp::kMultiply, Col(s, "minp"), Lit(1.03)));
        })
        .Project({"ps_suppkey", "p_name", "p_retailprice"});
  };
  std::vector<PlanBuilder> branches;
  branches.push_back(make_branch(true));
  branches.push_back(make_branch(false));
  return PlanBuilder::UnionAll(std::move(branches))
      .OrderBy({"ps_suppkey"})
      .Build();
}

Result<LogicalOpPtr> Q4Baseline(const Catalog& catalog) {
  auto averages =
      PartsuppPart(catalog)
          .GroupBy({"ps_suppkey", "p_size"},
                   {{AggKind::kAvg, "p_retailprice", "avgp", false}})
          .ProjectExprs(
              [](const Schema& s) {
                std::vector<ExprPtr> e;
                e.push_back(Col(s, "ps_suppkey"));
                e.push_back(Col(s, "p_size"));
                e.push_back(Col(s, "avgp"));
                return e;
              },
              {"sk_avg", "size_avg", "avgp"});
  return PartsuppPart(catalog)
      .Join(std::move(averages), {"ps_suppkey", "p_size"},
            {"sk_avg", "size_avg"})
      .Select([](const Schema& s) {
        return Gt(Col(s, "p_retailprice"), Col(s, "avgp"));
      })
      .ProjectExprs(
          [](const Schema& s) {
            std::vector<ExprPtr> e;
            e.push_back(Col(s, "ps_suppkey"));
            e.push_back(Col(s, "p_size"));
            e.push_back(Col(s, "p_name"));
            e.push_back(Col(s, "p_retailprice"));
            return e;
          },
          {"ps_suppkey", "p_size", "p_name", "p_retailprice"})
      .OrderBy({"ps_suppkey"})
      .Build();
}

}  // namespace

Result<LogicalOpPtr> Fig8Baseline(const Catalog& catalog, int q) {
  switch (q) {
    case 0:
      return Q1Baseline(catalog);
    case 1:
      return Q2Baseline(catalog);
    case 2:
      return Q3Baseline(catalog);
    case 3:
      return Q4Baseline(catalog);
  }
  return Status::InvalidArgument("Fig. 8 has queries 0..3");
}

}  // namespace gapply::perfbench
