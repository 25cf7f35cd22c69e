#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "kernel/scalar_fn.h"
#include "relational/executor.h"
#include "tpcd/queries.h"

/// Row-store baseline implementations of the 15 TPC-D queries: the
/// stand-in for the paper's IBM DB2 comparison point. Each query produces
/// the same `check` value as its Monet twin (validated by the test suite).
namespace moaflat::tpcd {
namespace {

using rel::FetchFilter;
using rel::FullScan;
using rel::HashJoin;
using rel::HashSemijoin;
using rel::IndexRange;
using rel::RowId;
using rel::RowSet;
using rel::Table;

Value D(int y, int m, int d) {
  return Value::MakeDate(Date::FromYmd(y, m, d));
}

/// Revenue of a lineitem row.
double Rev(const Table& li, RowId r, int price_col, int disc_col) {
  return li.NumAt(r, price_col) * (1.0 - li.NumAt(r, disc_col));
}

struct Cols {
  const Table* t;
  explicit Cols(const Table* table) : t(table) {}
  int operator()(const char* name) const { return t->ColIndex(name); }
};

EngineRun Finish(size_t rows, double check, double item_sel = -1) {
  EngineRun run;
  run.via = "row";
  run.rows = rows;
  run.check = check;
  run.item_selectivity = item_sel;
  return run;
}

Result<EngineRun> BaselineQ1(TpcdInstance& inst, storage::IoStats* io) {
  Table& li = *inst.rows.Find("lineitem");
  Cols c(&li);
  const int ship = c("l_shipdate"), rf = c("l_returnflag"),
            ls = c("l_linestatus"), price = c("l_extendedprice"),
            disc = c("l_discount");
  RowSet sel = IndexRange(io, li, "l_shipdate", Value(), D(1998, 9, 2));
  struct Acc {
    double disc_price = 0;
  };
  auto groups = rel::GroupBy<Acc>(
      io, sel,
      [&](RowId r) {
        return std::string(1, static_cast<char>(li.NumAt(r, rf))) +
               static_cast<char>(li.NumAt(r, ls));
      },
      [&](Acc* a, RowId r) { a->disc_price += Rev(li, r, price, disc); });
  (void)ship;
  double check = 0;
  for (auto& [k, a] : groups) check += a.disc_price;
  return Finish(groups.size(), check,
                static_cast<double>(sel.size()) / li.num_rows());
}

Result<EngineRun> BaselineQ2(TpcdInstance& inst, storage::IoStats* io) {
  Table& part = *inst.rows.Find("part");
  Table& ps = *inst.rows.Find("partsupp");
  Table& supp = *inst.rows.Find("supplier");
  Table& nation = *inst.rows.Find("nation");
  Table& region = *inst.rows.Find("region");
  Cols cp(&part);

  RowSet parts = FullScan(io, part, [&](RowId r) {
    return part.NumAt(r, cp("p_size")) == 15 &&
           kernel::LikeMatch(part.StrAt(r, cp("p_type")), "%BRASS");
  });
  RowSet regions = FullScan(io, region, [&](RowId r) {
    return region.StrAt(r, region.ColIndex("r_name")) == "EUROPE";
  });
  RowSet nations = HashSemijoin(io, FullScan(io, nation), "n_regionkey",
                                regions, "r_key");
  RowSet supps =
      HashSemijoin(io, FullScan(io, supp), "s_nationkey", nations, "n_key");
  RowSet pss = HashSemijoin(io, FullScan(io, ps), "ps_suppkey", supps, "s_key");
  RowSet pss2 = HashSemijoin(io, pss, "ps_partkey", parts, "p_key");

  const int pk = ps.ColIndex("ps_partkey"), cost = ps.ColIndex(
                                                "ps_supplycost");
  std::unordered_map<Oid, double> mins;
  for (RowId r : pss2.rows) {
    ps.TouchRow(io, r);
    const Oid key = ps.OidAt(r, pk);
    auto [it, fresh] = mins.try_emplace(key, ps.NumAt(r, cost));
    if (!fresh) it->second = std::min(it->second, ps.NumAt(r, cost));
  }
  double check = 0;
  for (auto& [k, v] : mins) check += v;
  return Finish(mins.size(), check);
}

Result<EngineRun> BaselineQ3(TpcdInstance& inst, storage::IoStats* io) {
  Table& cust = *inst.rows.Find("customer");
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");
  RowSet custs = FullScan(io, cust, [&](RowId r) {
    return cust.StrAt(r, cust.ColIndex("c_mktsegment")) == "BUILDING";
  });
  RowSet ords = IndexRange(io, ord, "o_orderdate", Value(), D(1995, 3, 14));
  RowSet ords2 = HashSemijoin(io, ords, "o_custkey", custs, "c_key");
  RowSet items = IndexRange(io, li, "l_shipdate", D(1995, 3, 16), Value());
  auto pairs = HashJoin(io, items, "l_orderkey", ords2, "o_key");

  const int price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount"),
            okey = li.ColIndex("l_orderkey");
  std::unordered_map<Oid, double> per_order;
  for (auto& [l, o] : pairs) {
    per_order[li.OidAt(l, okey)] += Rev(li, l, price, disc);
  }
  std::vector<double> revs;
  for (auto& [k, v] : per_order) revs.push_back(v);
  std::sort(revs.rbegin(), revs.rend());
  double check = 0;
  size_t n = std::min<size_t>(10, revs.size());
  for (size_t i = 0; i < n; ++i) check += revs[i];
  return Finish(n, check);
}

Result<EngineRun> BaselineQ4(TpcdInstance& inst, storage::IoStats* io) {
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");
  RowSet ords = IndexRange(io, ord, "o_orderdate", D(1993, 7, 1),
                           D(1993, 9, 30));
  const int commit = li.ColIndex("l_commitdate"),
            receipt = li.ColIndex("l_receiptdate");
  RowSet late = FullScan(io, li, [&](RowId r) {
    return li.NumAt(r, commit) < li.NumAt(r, receipt);
  });
  RowSet lateords = HashSemijoin(io, ords, "o_key", late, "l_orderkey");
  std::map<std::string, int64_t> counts;
  const int prio = ord.ColIndex("o_orderpriority");
  for (RowId r : lateords.rows) {
    ord.TouchRow(io, r);
    counts[std::string(ord.StrAt(r, prio))]++;
  }
  double check = 0;
  for (auto& [k, v] : counts) check += v;
  // Items qualifying = late items of the quarter's orders.
  RowSet lateitems = HashSemijoin(io, late, "l_orderkey", ords, "o_key");
  return Finish(counts.size(), check,
                static_cast<double>(lateitems.size()) / li.num_rows());
}

Result<EngineRun> BaselineQ5(TpcdInstance& inst, storage::IoStats* io) {
  Table& region = *inst.rows.Find("region");
  Table& nation = *inst.rows.Find("nation");
  Table& cust = *inst.rows.Find("customer");
  Table& supp = *inst.rows.Find("supplier");
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");

  RowSet regions = FullScan(io, region, [&](RowId r) {
    return region.StrAt(r, region.ColIndex("r_name")) == "ASIA";
  });
  RowSet nations =
      HashSemijoin(io, FullScan(io, nation), "n_regionkey", regions, "r_key");
  std::unordered_set<Oid> asia;
  for (RowId r : nations.rows) {
    asia.insert(nation.OidAt(r, nation.ColIndex("n_key")));
  }
  // Customer/supplier nation per key.
  std::unordered_map<Oid, Oid> cust_nat, supp_nat;
  for (RowId r : FullScan(io, cust).rows) {
    cust_nat[cust.OidAt(r, cust.ColIndex("c_key"))] =
        cust.OidAt(r, cust.ColIndex("c_nationkey"));
  }
  for (RowId r : FullScan(io, supp).rows) {
    supp_nat[supp.OidAt(r, supp.ColIndex("s_key"))] =
        supp.OidAt(r, supp.ColIndex("s_nationkey"));
  }
  RowSet ords =
      IndexRange(io, ord, "o_orderdate", D(1994, 1, 1), D(1994, 12, 31));
  std::unordered_map<Oid, Oid> order_cust;
  for (RowId r : FetchFilter(io, ords, {}).rows) {
    order_cust[ord.OidAt(r, ord.ColIndex("o_key"))] =
        ord.OidAt(r, ord.ColIndex("o_custkey"));
  }
  const int okey = li.ColIndex("l_orderkey"), skey = li.ColIndex("l_suppkey"),
            price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount");
  std::map<Oid, double> per_nation;
  size_t qualifying = 0;
  for (RowId r : FullScan(io, li).rows) {
    auto o = order_cust.find(li.OidAt(r, okey));
    if (o == order_cust.end()) continue;
    const Oid cnat = cust_nat[o->second];
    const Oid snat = supp_nat[li.OidAt(r, skey)];
    if (cnat != snat || asia.count(snat) == 0) continue;
    per_nation[snat] += Rev(li, r, price, disc);
    ++qualifying;
  }
  double check = 0;
  for (auto& [k, v] : per_nation) check += v;
  return Finish(per_nation.size(), check,
                static_cast<double>(qualifying) / li.num_rows());
}

Result<EngineRun> BaselineQ6(TpcdInstance& inst, storage::IoStats* io) {
  Table& li = *inst.rows.Find("lineitem");
  const int disc = li.ColIndex("l_discount"), qty = li.ColIndex("l_quantity"),
            price = li.ColIndex("l_extendedprice");
  RowSet sel = IndexRange(io, li, "l_shipdate", D(1994, 1, 1), D(1994, 12, 31));
  RowSet sel2 = FetchFilter(io, sel, [&](RowId r) {
    const double d = li.NumAt(r, disc);
    return d >= 0.05 && d <= 0.07 && li.NumAt(r, qty) < 24;
  });
  double check = 0;
  for (RowId r : sel2.rows) {
    check += li.NumAt(r, price) * li.NumAt(r, disc);
  }
  return Finish(1, check,
                static_cast<double>(sel2.size()) / li.num_rows());
}

Result<EngineRun> BaselineQ7(TpcdInstance& inst, storage::IoStats* io) {
  Table& nation = *inst.rows.Find("nation");
  Table& cust = *inst.rows.Find("customer");
  Table& supp = *inst.rows.Find("supplier");
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");

  Oid fr = 0, de = 0;
  for (RowId r : FullScan(io, nation).rows) {
    const auto name = nation.StrAt(r, nation.ColIndex("n_name"));
    if (name == "FRANCE") fr = nation.OidAt(r, nation.ColIndex("n_key"));
    if (name == "GERMANY") de = nation.OidAt(r, nation.ColIndex("n_key"));
  }
  std::unordered_map<Oid, Oid> cust_nat, supp_nat, order_cust;
  for (RowId r : FullScan(io, cust).rows) {
    cust_nat[cust.OidAt(r, cust.ColIndex("c_key"))] =
        cust.OidAt(r, cust.ColIndex("c_nationkey"));
  }
  for (RowId r : FullScan(io, supp).rows) {
    supp_nat[supp.OidAt(r, supp.ColIndex("s_key"))] =
        supp.OidAt(r, supp.ColIndex("s_nationkey"));
  }
  for (RowId r : FullScan(io, ord).rows) {
    order_cust[ord.OidAt(r, ord.ColIndex("o_key"))] =
        ord.OidAt(r, ord.ColIndex("o_custkey"));
  }
  RowSet sel = IndexRange(io, li, "l_shipdate", D(1995, 1, 1), D(1996, 12, 31));
  const int okey = li.ColIndex("l_orderkey"), skey = li.ColIndex("l_suppkey"),
            price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount"), ship = li.ColIndex("l_shipdate");
  std::map<std::pair<Oid, int>, double> groups;
  size_t qualifying = 0;
  for (RowId r : FetchFilter(io, sel, {}).rows) {
    const Oid snat = supp_nat[li.OidAt(r, skey)];
    const Oid cnat = cust_nat[order_cust[li.OidAt(r, okey)]];
    const bool d1 = snat == fr && cnat == de;
    const bool d2 = snat == de && cnat == fr;
    if (!d1 && !d2) continue;
    const int year = Date(static_cast<int32_t>(li.NumAt(r, ship))).Year();
    groups[{snat, year}] += Rev(li, r, price, disc);
    ++qualifying;
  }
  double check = 0;
  for (auto& [k, v] : groups) check += v;
  return Finish(groups.size(), check,
                static_cast<double>(qualifying) / li.num_rows());
}

Result<EngineRun> BaselineQ8(TpcdInstance& inst, storage::IoStats* io) {
  Table& region = *inst.rows.Find("region");
  Table& nation = *inst.rows.Find("nation");
  Table& cust = *inst.rows.Find("customer");
  Table& supp = *inst.rows.Find("supplier");
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");
  Table& part = *inst.rows.Find("part");

  RowSet regions = FullScan(io, region, [&](RowId r) {
    return region.StrAt(r, region.ColIndex("r_name")) == "AMERICA";
  });
  RowSet nations =
      HashSemijoin(io, FullScan(io, nation), "n_regionkey", regions, "r_key");
  std::unordered_set<Oid> america;
  for (RowId r : nations.rows) {
    america.insert(nation.OidAt(r, nation.ColIndex("n_key")));
  }
  Oid brazil = 0;
  for (RowId r : FullScan(io, nation).rows) {
    if (nation.StrAt(r, nation.ColIndex("n_name")) == "BRAZIL") {
      brazil = nation.OidAt(r, nation.ColIndex("n_key"));
    }
  }
  std::unordered_set<Oid> steel_parts;
  for (RowId r : FullScan(io, part).rows) {
    if (part.StrAt(r, part.ColIndex("p_type")) == "ECONOMY ANODIZED STEEL") {
      steel_parts.insert(part.OidAt(r, part.ColIndex("p_key")));
    }
  }
  std::unordered_map<Oid, Oid> cust_nat, supp_nat;
  std::unordered_map<Oid, std::pair<Oid, Date>> order_info;
  for (RowId r : FullScan(io, cust).rows) {
    cust_nat[cust.OidAt(r, cust.ColIndex("c_key"))] =
        cust.OidAt(r, cust.ColIndex("c_nationkey"));
  }
  for (RowId r : FullScan(io, supp).rows) {
    supp_nat[supp.OidAt(r, supp.ColIndex("s_key"))] =
        supp.OidAt(r, supp.ColIndex("s_nationkey"));
  }
  for (RowId r : FullScan(io, ord).rows) {
    order_info[ord.OidAt(r, ord.ColIndex("o_key"))] = {
        ord.OidAt(r, ord.ColIndex("o_custkey")),
        Date(static_cast<int32_t>(ord.NumAt(r, ord.ColIndex("o_orderdate"))))};
  }
  const Date lo = Date::FromYmd(1995, 1, 1), hi = Date::FromYmd(1996, 12, 31);
  const int okey = li.ColIndex("l_orderkey"), skey = li.ColIndex("l_suppkey"),
            pkey = li.ColIndex("l_partkey"),
            price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount");
  std::map<int, std::pair<double, double>> per_year;  // total, brazil
  size_t qualifying = 0;
  for (RowId r : FullScan(io, li).rows) {
    if (steel_parts.count(li.OidAt(r, pkey)) == 0) continue;
    const auto& [ckey, odate] = order_info[li.OidAt(r, okey)];
    if (odate < lo || hi < odate) continue;
    if (america.count(cust_nat[ckey]) == 0) continue;
    const double rev = Rev(li, r, price, disc);
    auto& [total, br] = per_year[odate.Year()];
    total += rev;
    if (supp_nat[li.OidAt(r, skey)] == brazil) br += rev;
    ++qualifying;
  }
  double check = 0;
  for (auto& [y, tb] : per_year) check += tb.first + tb.second;
  return Finish(per_year.size(), check,
                static_cast<double>(qualifying) / li.num_rows());
}

Result<EngineRun> BaselineQ9(TpcdInstance& inst, storage::IoStats* io) {
  Table& part = *inst.rows.Find("part");
  Table& supp = *inst.rows.Find("supplier");
  Table& ps = *inst.rows.Find("partsupp");
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");

  std::unordered_set<Oid> green;
  for (RowId r : FullScan(io, part).rows) {
    if (kernel::LikeMatch(part.StrAt(r, part.ColIndex("p_name")),
                          "%green%")) {
      green.insert(part.OidAt(r, part.ColIndex("p_key")));
    }
  }
  std::unordered_map<Oid, Oid> supp_nat;
  for (RowId r : FullScan(io, supp).rows) {
    supp_nat[supp.OidAt(r, supp.ColIndex("s_key"))] =
        supp.OidAt(r, supp.ColIndex("s_nationkey"));
  }
  std::unordered_map<Oid, Date> order_date;
  for (RowId r : FullScan(io, ord).rows) {
    order_date[ord.OidAt(r, ord.ColIndex("o_key"))] =
        Date(static_cast<int32_t>(ord.NumAt(r, ord.ColIndex("o_orderdate"))));
  }
  // (part, supplier) -> cost.
  std::map<std::pair<Oid, Oid>, double> cost;
  for (RowId r : FullScan(io, ps).rows) {
    cost[{ps.OidAt(r, ps.ColIndex("ps_partkey")),
          ps.OidAt(r, ps.ColIndex("ps_suppkey"))}] =
        ps.NumAt(r, ps.ColIndex("ps_supplycost"));
  }
  const int okey = li.ColIndex("l_orderkey"), skey = li.ColIndex("l_suppkey"),
            pkey = li.ColIndex("l_partkey"), qty = li.ColIndex("l_quantity"),
            price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount");
  std::map<std::pair<Oid, int>, double> groups;
  size_t qualifying = 0;
  for (RowId r : FullScan(io, li).rows) {
    const Oid p = li.OidAt(r, pkey);
    if (green.count(p) == 0) continue;
    const Oid s = li.OidAt(r, skey);
    const double profit =
        Rev(li, r, price, disc) - cost[{p, s}] * li.NumAt(r, qty);
    groups[{supp_nat[s], order_date[li.OidAt(r, okey)].Year()}] += profit;
    ++qualifying;
  }
  double check = 0;
  for (auto& [k, v] : groups) check += v;
  return Finish(groups.size(), check,
                static_cast<double>(qualifying) / li.num_rows());
}

Result<EngineRun> BaselineQ10(TpcdInstance& inst, storage::IoStats* io) {
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");
  std::unordered_map<Oid, std::pair<Oid, Date>> order_info;
  for (RowId r : FullScan(io, ord).rows) {
    order_info[ord.OidAt(r, ord.ColIndex("o_key"))] = {
        ord.OidAt(r, ord.ColIndex("o_custkey")),
        Date(static_cast<int32_t>(ord.NumAt(r, ord.ColIndex("o_orderdate"))))};
  }
  const Date lo = Date::FromYmd(1993, 10, 1), hi = Date::FromYmd(1993, 12, 31);
  const int okey = li.ColIndex("l_orderkey"), rf = li.ColIndex("l_returnflag"),
            price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount");
  std::unordered_map<Oid, double> per_cust;
  for (RowId r : FullScan(io, li).rows) {
    if (static_cast<char>(li.NumAt(r, rf)) != 'R') continue;
    const auto& [ckey, odate] = order_info[li.OidAt(r, okey)];
    if (odate < lo || hi < odate) continue;
    per_cust[ckey] += Rev(li, r, price, disc);
  }
  std::vector<double> revs;
  for (auto& [c, v] : per_cust) revs.push_back(v);
  std::sort(revs.rbegin(), revs.rend());
  const size_t n = std::min<size_t>(20, revs.size());
  double check = 0;
  for (size_t i = 0; i < n; ++i) check += revs[i];
  return Finish(n, check);
}

Result<EngineRun> BaselineQ11(TpcdInstance& inst, storage::IoStats* io) {
  Table& nation = *inst.rows.Find("nation");
  Table& supp = *inst.rows.Find("supplier");
  Table& ps = *inst.rows.Find("partsupp");
  Oid germany = 0;
  for (RowId r : FullScan(io, nation).rows) {
    if (nation.StrAt(r, nation.ColIndex("n_name")) == "GERMANY") {
      germany = nation.OidAt(r, nation.ColIndex("n_key"));
    }
  }
  std::unordered_set<Oid> german_supps;
  for (RowId r : FullScan(io, supp).rows) {
    if (supp.OidAt(r, supp.ColIndex("s_nationkey")) == germany) {
      german_supps.insert(supp.OidAt(r, supp.ColIndex("s_key")));
    }
  }
  const int pk = ps.ColIndex("ps_partkey"), sk = ps.ColIndex("ps_suppkey"),
            cost = ps.ColIndex("ps_supplycost"),
            avail = ps.ColIndex("ps_availqty");
  std::unordered_map<Oid, double> per_part;
  double total = 0;
  for (RowId r : FullScan(io, ps).rows) {
    if (german_supps.count(ps.OidAt(r, sk)) == 0) continue;
    const double v = ps.NumAt(r, cost) * ps.NumAt(r, avail);
    per_part[ps.OidAt(r, pk)] += v;
    total += v;
  }
  const double threshold = total * 0.001;
  double check = 0;
  size_t rows = 0;
  for (auto& [p, v] : per_part) {
    if (v > threshold) {
      check += v;
      ++rows;
    }
  }
  return Finish(rows, check);
}

Result<EngineRun> BaselineQ12(TpcdInstance& inst, storage::IoStats* io) {
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");
  std::unordered_map<Oid, std::string> order_prio;
  for (RowId r : FullScan(io, ord).rows) {
    order_prio[ord.OidAt(r, ord.ColIndex("o_key"))] =
        std::string(ord.StrAt(r, ord.ColIndex("o_orderpriority")));
  }
  const Date lo = Date::FromYmd(1994, 1, 1), hi = Date::FromYmd(1994, 12, 31);
  const int okey = li.ColIndex("l_orderkey"), mode = li.ColIndex("l_shipmode"),
            commit = li.ColIndex("l_commitdate"),
            receipt = li.ColIndex("l_receiptdate"),
            ship = li.ColIndex("l_shipdate");
  std::map<std::string, std::pair<int64_t, int64_t>> counts;  // high, low
  size_t qualifying = 0;
  for (RowId r : FullScan(io, li).rows) {
    const auto sm = li.StrAt(r, mode);
    if (sm != "MAIL" && sm != "SHIP") continue;
    const Date rd = Date(static_cast<int32_t>(li.NumAt(r, receipt)));
    if (rd < lo || hi < rd) continue;
    if (!(li.NumAt(r, commit) < li.NumAt(r, receipt) &&
          li.NumAt(r, ship) < li.NumAt(r, commit))) {
      continue;
    }
    const std::string& prio = order_prio[li.OidAt(r, okey)];
    auto& [high, low] = counts[std::string(sm)];
    if (prio == "1-URGENT" || prio == "2-HIGH") {
      ++high;
    } else {
      ++low;
    }
    ++qualifying;
  }
  double check = 0;
  for (auto& [k, hl] : counts) check += hl.first + hl.second;
  return Finish(counts.size(), check,
                static_cast<double>(qualifying) / li.num_rows());
}

Result<EngineRun> BaselineQ13(TpcdInstance& inst, storage::IoStats* io) {
  Table& ord = *inst.rows.Find("orders");
  Table& li = *inst.rows.Find("lineitem");
  // Index-select the clerk's orders, then fetch their returned items.
  RowSet ords = IndexRange(io, ord, "o_clerk", Value::Str(inst.probe_clerk),
                           Value::Str(inst.probe_clerk));
  std::unordered_map<Oid, int> order_year;
  for (RowId r : FetchFilter(io, ords, {}).rows) {
    order_year[ord.OidAt(r, ord.ColIndex("o_key"))] =
        Date(static_cast<int32_t>(ord.NumAt(r, ord.ColIndex("o_orderdate"))))
            .Year();
  }
  const int okey = li.ColIndex("l_orderkey"), rf = li.ColIndex("l_returnflag"),
            price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount");
  std::map<int, double> per_year;
  size_t qualifying = 0;
  for (RowId r : FullScan(io, li).rows) {
    auto it = order_year.find(li.OidAt(r, okey));
    if (it == order_year.end()) continue;
    if (static_cast<char>(li.NumAt(r, rf)) != 'R') continue;
    per_year[it->second] += Rev(li, r, price, disc);
    ++qualifying;
  }
  double check = 0;
  for (auto& [y, v] : per_year) check += v;
  return Finish(per_year.size(), check,
                static_cast<double>(qualifying) / li.num_rows());
}

Result<EngineRun> BaselineQ14(TpcdInstance& inst, storage::IoStats* io) {
  Table& part = *inst.rows.Find("part");
  Table& li = *inst.rows.Find("lineitem");
  std::unordered_set<Oid> promo;
  for (RowId r : FullScan(io, part).rows) {
    if (kernel::LikeMatch(part.StrAt(r, part.ColIndex("p_type")),
                          "PROMO%")) {
      promo.insert(part.OidAt(r, part.ColIndex("p_key")));
    }
  }
  RowSet sel = IndexRange(io, li, "l_shipdate", D(1995, 9, 1), D(1995, 9, 30));
  const int pkey = li.ColIndex("l_partkey"),
            price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount");
  double total = 0, promo_rev = 0;
  for (RowId r : FetchFilter(io, sel, {}).rows) {
    const double rev = Rev(li, r, price, disc);
    total += rev;
    if (promo.count(li.OidAt(r, pkey)) > 0) promo_rev += rev;
  }
  return Finish(1, 100.0 * promo_rev / total,
                static_cast<double>(sel.size()) / li.num_rows());
}

Result<EngineRun> BaselineQ15(TpcdInstance& inst, storage::IoStats* io) {
  Table& li = *inst.rows.Find("lineitem");
  RowSet sel = IndexRange(io, li, "l_shipdate", D(1996, 1, 1), D(1996, 3, 31));
  const int skey = li.ColIndex("l_suppkey"),
            price = li.ColIndex("l_extendedprice"),
            disc = li.ColIndex("l_discount");
  std::unordered_map<Oid, double> per_supp;
  for (RowId r : FetchFilter(io, sel, {}).rows) {
    per_supp[li.OidAt(r, skey)] += Rev(li, r, price, disc);
  }
  double best = 0;
  for (auto& [s, v] : per_supp) best = std::max(best, v);
  return Finish(1, best, static_cast<double>(sel.size()) / li.num_rows());
}

}  // namespace

Result<EngineRun> QuerySuite::RunBaseline(int q,
                                          const kernel::ExecContext& ctx) {
  switch (q) {
    case 1: return BaselineQ1(*inst_, ctx.io());
    case 2: return BaselineQ2(*inst_, ctx.io());
    case 3: return BaselineQ3(*inst_, ctx.io());
    case 4: return BaselineQ4(*inst_, ctx.io());
    case 5: return BaselineQ5(*inst_, ctx.io());
    case 6: return BaselineQ6(*inst_, ctx.io());
    case 7: return BaselineQ7(*inst_, ctx.io());
    case 8: return BaselineQ8(*inst_, ctx.io());
    case 9: return BaselineQ9(*inst_, ctx.io());
    case 10: return BaselineQ10(*inst_, ctx.io());
    case 11: return BaselineQ11(*inst_, ctx.io());
    case 12: return BaselineQ12(*inst_, ctx.io());
    case 13: return BaselineQ13(*inst_, ctx.io());
    case 14: return BaselineQ14(*inst_, ctx.io());
    case 15: return BaselineQ15(*inst_, ctx.io());
    default:
      return Status::OutOfRange("TPC-D query number must be 1..15");
  }
}

}  // namespace moaflat::tpcd
