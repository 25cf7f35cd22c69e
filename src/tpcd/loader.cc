#include "tpcd/loader.h"

#include <chrono>
#include <functional>
#include <vector>

#include "bat/datavector.h"
#include "kernel/operators.h"

namespace moaflat::tpcd {
namespace {

using bat::Bat;
using bat::Column;
using bat::ColumnPtr;
using bat::Properties;
using moa::AttrDef;
using moa::ClassDef;
using moa::Database;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Builds the oid column base, base+1, ... (the class extent head, kept
/// materialized: the cost model charges extent lookups, Section 5.2.2).
ColumnPtr DenseOids(Oid base, size_t n) {
  std::vector<Oid> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = base + i;
  return Column::MakeOid(std::move(v));
}

/// One attribute family: builds the oid-ordered BAT, attaches the shared
/// datavector (extent + oid-ordered value vector), reorders on tail and
/// binds the result under its conventional name.
class ClassLoader {
 public:
  ClassLoader(Database* db, std::string cls, Oid base, size_t n)
      : db_(db),
        cls_(std::move(cls)),
        base_(base),
        n_(n),
        lookup_cache_(std::make_shared<bat::DvLookupCache>()) {
    extent_col_ = DenseOids(base, n);
    Bat extent(extent_col_, Column::MakeVoid(0, n),
               Properties{true, false, true, true});
    db_->Bind(cls_, std::move(extent));
  }

  const ColumnPtr& extent_col() const { return extent_col_; }

  /// Adds one attribute whose oid-ordered values are in `values`.
  Status AddAttr(const std::string& attr, ColumnPtr values,
                 LoadStats* stats) {
    Bat oid_ordered(extent_col_, values, Properties{true, false, true, false});
    stats->base_bytes += values->byte_size();

    // All attributes of the class share one extent and one LOOKUP cache:
    // the first datavector semijoin against a selection "blazes the trail"
    // for every other attribute (Section 5.2.1 / Fig. 10 commentary), and
    // the extent's density is checked once for the whole class.
    auto dv =
        std::make_shared<bat::Datavector>(extent_col_, values, lookup_cache_);
    stats->datavector_bytes += values->byte_size();

    MF_ASSIGN_OR_RETURN(
        Bat sorted, kernel::SortTail(kernel::ExecContext(), oid_ordered));
    sorted.SetDatavector(std::move(dv));
    db_->Bind(Database::AttrBatName(cls_, attr), std::move(sorted));
    return Status::OK();
  }

 private:
  Database* db_;
  std::string cls_;
  Oid base_;
  size_t n_;
  std::shared_ptr<bat::DvLookupCache> lookup_cache_;
  ColumnPtr extent_col_;
};

template <typename T, typename Fn>
std::vector<std::string> StrField(const std::vector<T>& rows, Fn&& get) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const T& r : rows) out.push_back(get(r));
  return out;
}

}  // namespace

moa::Schema MakeTpcdSchema() {
  moa::Schema schema;
  using K = MonetType;

  schema.AddClass(ClassDef{
      "Region",
      {AttrDef::Base("name", K::kStr), AttrDef::Base("comment", K::kStr)}});
  schema.AddClass(ClassDef{"Nation",
                           {AttrDef::Base("name", K::kStr),
                            AttrDef::Ref("region", "Region")}});
  schema.AddClass(ClassDef{
      "Part",
      {AttrDef::Base("name", K::kStr),
       AttrDef::Base("manufacturer", K::kStr),
       AttrDef::Base("brand", K::kStr), AttrDef::Base("type", K::kStr),
       AttrDef::Base("size", K::kInt), AttrDef::Base("container", K::kStr),
       AttrDef::Base("retailPrice", K::kDbl)}});
  schema.AddClass(ClassDef{
      "Supplier",
      {AttrDef::Base("name", K::kStr), AttrDef::Base("address", K::kStr),
       AttrDef::Base("phone", K::kStr), AttrDef::Base("acctbal", K::kDbl),
       AttrDef::Ref("nation", "Nation"),
       AttrDef::SetTuple("supplies",
                         {AttrDef::Ref("part", "Part"),
                          AttrDef::Base("cost", K::kDbl),
                          AttrDef::Base("available", K::kInt)})}});
  schema.AddClass(ClassDef{
      "Customer",
      {AttrDef::Base("name", K::kStr), AttrDef::Base("address", K::kStr),
       AttrDef::Base("phone", K::kStr), AttrDef::Base("acctbal", K::kDbl),
       AttrDef::Ref("nation", "Nation"),
       AttrDef::Base("mktsegment", K::kStr),
       AttrDef::SetRef("orders", "Order")}});
  schema.AddClass(ClassDef{
      "Order",
      {AttrDef::Ref("cust", "Customer"), AttrDef::SetRef("item", "Item"),
       AttrDef::Base("status", K::kChr),
       AttrDef::Base("totalprice", K::kDbl),
       AttrDef::Base("orderdate", K::kDate),
       AttrDef::Base("orderpriority", K::kStr),
       AttrDef::Base("clerk", K::kStr),
       AttrDef::Base("shippriority", K::kStr)}});
  schema.AddClass(ClassDef{
      "Item",
      {AttrDef::Ref("part", "Part"), AttrDef::Ref("supplier", "Supplier"),
       AttrDef::Ref("order", "Order"), AttrDef::Base("quantity", K::kInt),
       AttrDef::Base("returnflag", K::kChr),
       AttrDef::Base("linestatus", K::kChr),
       AttrDef::Base("extendedprice", K::kDbl),
       AttrDef::Base("discount", K::kDbl), AttrDef::Base("tax", K::kDbl),
       AttrDef::Base("shipdate", K::kDate),
       AttrDef::Base("commitdate", K::kDate),
       AttrDef::Base("receiptdate", K::kDate),
       AttrDef::Base("shipmode", K::kStr),
       AttrDef::Base("shipinstruct", K::kStr)}});
  return schema;
}

Result<std::shared_ptr<TpcdInstance>> Load(const TpcdData& d,
                                           double scale_factor) {
  auto inst = std::make_shared<TpcdInstance>();
  inst->scale_factor = scale_factor;
  inst->probe_clerk = d.probe_clerk();
  inst->num_items = d.items.size();
  inst->db.schema() = MakeTpcdSchema();
  Database& db = inst->db;
  LoadStats& stats = inst->stats;

  const auto t0 = std::chrono::steady_clock::now();

  // ------------------------------------------------------ row store (DB2)
  rel::RowDatabase& rows = inst->rows;
  using K = MonetType;
  {
    rel::Table* t = rows.AddTable(
        "region", {{"r_key", K::kOidT}, {"r_name", K::kStr},
                   {"r_comment", K::kStr}});
    for (size_t i = 0; i < d.regions.size(); ++i) {
      MF_RETURN_NOT_OK(t->AppendRow({Value::MakeOid(kRegionBase + i),
                                     Value::Str(d.regions[i].name),
                                     Value::Str(d.regions[i].comment)}));
    }
    t->Finalize();
  }
  {
    rel::Table* t = rows.AddTable(
        "nation", {{"n_key", K::kOidT}, {"n_name", K::kStr},
                   {"n_regionkey", K::kOidT}});
    for (size_t i = 0; i < d.nations.size(); ++i) {
      MF_RETURN_NOT_OK(
          t->AppendRow({Value::MakeOid(kNationBase + i),
                        Value::Str(d.nations[i].name),
                        Value::MakeOid(kRegionBase + d.nations[i].region)}));
    }
    t->Finalize();
  }
  {
    rel::Table* t = rows.AddTable(
        "supplier",
        {{"s_key", K::kOidT}, {"s_name", K::kStr}, {"s_address", K::kStr},
         {"s_phone", K::kStr}, {"s_acctbal", K::kDbl},
         {"s_nationkey", K::kOidT}});
    for (size_t i = 0; i < d.suppliers.size(); ++i) {
      const auto& s = d.suppliers[i];
      MF_RETURN_NOT_OK(t->AppendRow(
          {Value::MakeOid(kSupplierBase + i), Value::Str(s.name),
           Value::Str(s.address), Value::Str(s.phone), Value::Dbl(s.acctbal),
           Value::MakeOid(kNationBase + s.nation)}));
    }
    t->Finalize();
  }
  {
    rel::Table* t = rows.AddTable(
        "part", {{"p_key", K::kOidT}, {"p_name", K::kStr},
                 {"p_mfgr", K::kStr}, {"p_brand", K::kStr},
                 {"p_type", K::kStr}, {"p_size", K::kInt},
                 {"p_container", K::kStr}, {"p_retailprice", K::kDbl}});
    for (size_t i = 0; i < d.parts.size(); ++i) {
      const auto& p = d.parts[i];
      MF_RETURN_NOT_OK(t->AppendRow(
          {Value::MakeOid(kPartBase + i), Value::Str(p.name),
           Value::Str(p.mfgr), Value::Str(p.brand), Value::Str(p.type),
           Value::Int(p.size), Value::Str(p.container),
           Value::Dbl(p.retailprice)}));
    }
    t->Finalize();
  }
  {
    rel::Table* t = rows.AddTable(
        "partsupp",
        {{"ps_partkey", K::kOidT}, {"ps_suppkey", K::kOidT},
         {"ps_supplycost", K::kDbl}, {"ps_availqty", K::kInt}});
    for (const auto& ps : d.partsupps) {
      MF_RETURN_NOT_OK(t->AppendRow(
          {Value::MakeOid(kPartBase + ps.part),
           Value::MakeOid(kSupplierBase + ps.supplier),
           Value::Dbl(ps.cost), Value::Int(ps.available)}));
    }
    t->Finalize();
  }
  {
    rel::Table* t = rows.AddTable(
        "customer",
        {{"c_key", K::kOidT}, {"c_name", K::kStr}, {"c_address", K::kStr},
         {"c_phone", K::kStr}, {"c_acctbal", K::kDbl},
         {"c_nationkey", K::kOidT}, {"c_mktsegment", K::kStr}});
    for (size_t i = 0; i < d.customers.size(); ++i) {
      const auto& c = d.customers[i];
      MF_RETURN_NOT_OK(t->AppendRow(
          {Value::MakeOid(kCustomerBase + i), Value::Str(c.name),
           Value::Str(c.address), Value::Str(c.phone), Value::Dbl(c.acctbal),
           Value::MakeOid(kNationBase + c.nation),
           Value::Str(c.mktsegment)}));
    }
    t->Finalize();
  }
  {
    rel::Table* t = rows.AddTable(
        "orders",
        {{"o_key", K::kOidT}, {"o_custkey", K::kOidT},
         {"o_status", K::kChr}, {"o_totalprice", K::kDbl},
         {"o_orderdate", K::kDate}, {"o_orderpriority", K::kStr},
         {"o_clerk", K::kStr}, {"o_shippriority", K::kStr}});
    for (size_t i = 0; i < d.orders.size(); ++i) {
      const auto& o = d.orders[i];
      MF_RETURN_NOT_OK(t->AppendRow(
          {Value::MakeOid(kOrderBase + i),
           Value::MakeOid(kCustomerBase + o.cust), Value::Chr(o.status),
           Value::Dbl(o.totalprice), Value::MakeDate(o.orderdate),
           Value::Str(o.orderpriority), Value::Str(o.clerk),
           Value::Str(o.shippriority)}));
    }
    t->Finalize();
  }
  {
    rel::Table* t = rows.AddTable(
        "lineitem",
        {{"l_orderkey", K::kOidT}, {"l_partkey", K::kOidT},
         {"l_suppkey", K::kOidT}, {"l_quantity", K::kInt},
         {"l_extendedprice", K::kDbl}, {"l_discount", K::kDbl},
         {"l_tax", K::kDbl}, {"l_returnflag", K::kChr},
         {"l_linestatus", K::kChr}, {"l_shipdate", K::kDate},
         {"l_commitdate", K::kDate}, {"l_receiptdate", K::kDate},
         {"l_shipmode", K::kStr}, {"l_shipinstruct", K::kStr}});
    for (const auto& it : d.items) {
      MF_RETURN_NOT_OK(t->AppendRow(
          {Value::MakeOid(kOrderBase + it.order),
           Value::MakeOid(kPartBase + it.part),
           Value::MakeOid(kSupplierBase + it.supplier),
           Value::Int(it.quantity), Value::Dbl(it.extendedprice),
           Value::Dbl(it.discount), Value::Dbl(it.tax),
           Value::Chr(it.returnflag), Value::Chr(it.linestatus),
           Value::MakeDate(it.shipdate), Value::MakeDate(it.commitdate),
           Value::MakeDate(it.receiptdate), Value::Str(it.shipmode),
           Value::Str(it.shipinstruct)}));
    }
    t->Finalize();
    stats.base_bytes += rows.total_bytes();
  }

  stats.bulk_load_sec = SecondsSince(t0);
  const auto t1 = std::chrono::steady_clock::now();

  // --------------------------------------- flattened store (Fig. 3 style)
  // Extent creation counts as accelerator time; the per-attribute SortTail
  // calls inside ClassLoader::AddAttr are the "reorder on tail" phase, so
  // we time attribute loading as a whole and attribute it to reorder.
  ClassLoader region(&db, "Region", kRegionBase, d.regions.size());
  ClassLoader nation(&db, "Nation", kNationBase, d.nations.size());
  ClassLoader supplier(&db, "Supplier", kSupplierBase, d.suppliers.size());
  ClassLoader part(&db, "Part", kPartBase, d.parts.size());
  ClassLoader customer(&db, "Customer", kCustomerBase, d.customers.size());
  ClassLoader order(&db, "Order", kOrderBase, d.orders.size());
  ClassLoader item(&db, "Item", kItemBase, d.items.size());
  stats.accel_sec = SecondsSince(t1);

  const auto t2 = std::chrono::steady_clock::now();
  using R = TpcdData::Region;
  using N = TpcdData::Nation;
  using S = TpcdData::Supplier;
  using P = TpcdData::Part;
  using C = TpcdData::Customer;
  using O = TpcdData::Order;
  using I = TpcdData::Item;

  MF_RETURN_NOT_OK(region.AddAttr(
      "name",
      Column::MakeStr(StrField(d.regions, [](const R& r) { return r.name; })),
      &stats));
  MF_RETURN_NOT_OK(region.AddAttr(
      "comment",
      Column::MakeStr(
          StrField(d.regions, [](const R& r) { return r.comment; })),
      &stats));

  MF_RETURN_NOT_OK(nation.AddAttr(
      "name",
      Column::MakeStr(StrField(d.nations, [](const N& n) { return n.name; })),
      &stats));
  {
    std::vector<Oid> refs;
    for (const N& n : d.nations) refs.push_back(kRegionBase + n.region);
    MF_RETURN_NOT_OK(
        nation.AddAttr("region", Column::MakeOid(std::move(refs)), &stats));
  }

  MF_RETURN_NOT_OK(supplier.AddAttr(
      "name",
      Column::MakeStr(
          StrField(d.suppliers, [](const S& s) { return s.name; })),
      &stats));
  MF_RETURN_NOT_OK(supplier.AddAttr(
      "address",
      Column::MakeStr(
          StrField(d.suppliers, [](const S& s) { return s.address; })),
      &stats));
  MF_RETURN_NOT_OK(supplier.AddAttr(
      "phone",
      Column::MakeStr(
          StrField(d.suppliers, [](const S& s) { return s.phone; })),
      &stats));
  {
    std::vector<double> v;
    for (const S& s : d.suppliers) v.push_back(s.acctbal);
    MF_RETURN_NOT_OK(
        supplier.AddAttr("acctbal", Column::MakeDbl(std::move(v)), &stats));
  }
  {
    std::vector<Oid> refs;
    for (const S& s : d.suppliers) refs.push_back(kNationBase + s.nation);
    MF_RETURN_NOT_OK(
        supplier.AddAttr("nation", Column::MakeOid(std::move(refs)), &stats));
  }

  MF_RETURN_NOT_OK(part.AddAttr(
      "name",
      Column::MakeStr(StrField(d.parts, [](const P& p) { return p.name; })),
      &stats));
  MF_RETURN_NOT_OK(part.AddAttr(
      "manufacturer",
      Column::MakeStr(StrField(d.parts, [](const P& p) { return p.mfgr; })),
      &stats));
  MF_RETURN_NOT_OK(part.AddAttr(
      "brand",
      Column::MakeStr(StrField(d.parts, [](const P& p) { return p.brand; })),
      &stats));
  MF_RETURN_NOT_OK(part.AddAttr(
      "type",
      Column::MakeStr(StrField(d.parts, [](const P& p) { return p.type; })),
      &stats));
  {
    std::vector<int32_t> v;
    for (const P& p : d.parts) v.push_back(p.size);
    MF_RETURN_NOT_OK(
        part.AddAttr("size", Column::MakeInt(std::move(v)), &stats));
  }
  MF_RETURN_NOT_OK(part.AddAttr(
      "container",
      Column::MakeStr(
          StrField(d.parts, [](const P& p) { return p.container; })),
      &stats));
  {
    std::vector<double> v;
    for (const P& p : d.parts) v.push_back(p.retailprice);
    MF_RETURN_NOT_OK(
        part.AddAttr("retailPrice", Column::MakeDbl(std::move(v)), &stats));
  }

  MF_RETURN_NOT_OK(customer.AddAttr(
      "name",
      Column::MakeStr(
          StrField(d.customers, [](const C& c) { return c.name; })),
      &stats));
  MF_RETURN_NOT_OK(customer.AddAttr(
      "address",
      Column::MakeStr(
          StrField(d.customers, [](const C& c) { return c.address; })),
      &stats));
  MF_RETURN_NOT_OK(customer.AddAttr(
      "phone",
      Column::MakeStr(
          StrField(d.customers, [](const C& c) { return c.phone; })),
      &stats));
  {
    std::vector<double> v;
    for (const C& c : d.customers) v.push_back(c.acctbal);
    MF_RETURN_NOT_OK(
        customer.AddAttr("acctbal", Column::MakeDbl(std::move(v)), &stats));
  }
  {
    std::vector<Oid> refs;
    for (const C& c : d.customers) refs.push_back(kNationBase + c.nation);
    MF_RETURN_NOT_OK(
        customer.AddAttr("nation", Column::MakeOid(std::move(refs)), &stats));
  }
  MF_RETURN_NOT_OK(customer.AddAttr(
      "mktsegment",
      Column::MakeStr(
          StrField(d.customers, [](const C& c) { return c.mktsegment; })),
      &stats));

  {
    std::vector<Oid> refs;
    for (const O& o : d.orders) refs.push_back(kCustomerBase + o.cust);
    MF_RETURN_NOT_OK(
        order.AddAttr("cust", Column::MakeOid(std::move(refs)), &stats));
  }
  {
    std::vector<char> v;
    for (const O& o : d.orders) v.push_back(o.status);
    MF_RETURN_NOT_OK(
        order.AddAttr("status", Column::MakeChr(std::move(v)), &stats));
  }
  {
    std::vector<double> v;
    for (const O& o : d.orders) v.push_back(o.totalprice);
    MF_RETURN_NOT_OK(
        order.AddAttr("totalprice", Column::MakeDbl(std::move(v)), &stats));
  }
  {
    std::vector<Date> v;
    for (const O& o : d.orders) v.push_back(o.orderdate);
    MF_RETURN_NOT_OK(
        order.AddAttr("orderdate", Column::MakeDate(std::move(v)), &stats));
  }
  MF_RETURN_NOT_OK(order.AddAttr(
      "orderpriority",
      Column::MakeStr(
          StrField(d.orders, [](const O& o) { return o.orderpriority; })),
      &stats));
  MF_RETURN_NOT_OK(order.AddAttr(
      "clerk",
      Column::MakeStr(StrField(d.orders, [](const O& o) { return o.clerk; })),
      &stats));
  MF_RETURN_NOT_OK(order.AddAttr(
      "shippriority",
      Column::MakeStr(
          StrField(d.orders, [](const O& o) { return o.shippriority; })),
      &stats));

  {
    std::vector<Oid> refs;
    for (const I& it : d.items) refs.push_back(kPartBase + it.part);
    MF_RETURN_NOT_OK(
        item.AddAttr("part", Column::MakeOid(std::move(refs)), &stats));
  }
  {
    std::vector<Oid> refs;
    for (const I& it : d.items) refs.push_back(kSupplierBase + it.supplier);
    MF_RETURN_NOT_OK(
        item.AddAttr("supplier", Column::MakeOid(std::move(refs)), &stats));
  }
  {
    std::vector<Oid> refs;
    for (const I& it : d.items) refs.push_back(kOrderBase + it.order);
    MF_RETURN_NOT_OK(
        item.AddAttr("order", Column::MakeOid(std::move(refs)), &stats));
  }
  {
    std::vector<int32_t> v;
    for (const I& it : d.items) v.push_back(it.quantity);
    MF_RETURN_NOT_OK(
        item.AddAttr("quantity", Column::MakeInt(std::move(v)), &stats));
  }
  {
    std::vector<char> v;
    for (const I& it : d.items) v.push_back(it.returnflag);
    MF_RETURN_NOT_OK(
        item.AddAttr("returnflag", Column::MakeChr(std::move(v)), &stats));
  }
  {
    std::vector<char> v;
    for (const I& it : d.items) v.push_back(it.linestatus);
    MF_RETURN_NOT_OK(
        item.AddAttr("linestatus", Column::MakeChr(std::move(v)), &stats));
  }
  {
    std::vector<double> v;
    for (const I& it : d.items) v.push_back(it.extendedprice);
    MF_RETURN_NOT_OK(item.AddAttr("extendedprice",
                                  Column::MakeDbl(std::move(v)), &stats));
  }
  {
    std::vector<double> v;
    for (const I& it : d.items) v.push_back(it.discount);
    MF_RETURN_NOT_OK(
        item.AddAttr("discount", Column::MakeDbl(std::move(v)), &stats));
  }
  {
    std::vector<double> v;
    for (const I& it : d.items) v.push_back(it.tax);
    MF_RETURN_NOT_OK(
        item.AddAttr("tax", Column::MakeDbl(std::move(v)), &stats));
  }
  {
    std::vector<Date> v;
    for (const I& it : d.items) v.push_back(it.shipdate);
    MF_RETURN_NOT_OK(
        item.AddAttr("shipdate", Column::MakeDate(std::move(v)), &stats));
  }
  {
    std::vector<Date> v;
    for (const I& it : d.items) v.push_back(it.commitdate);
    MF_RETURN_NOT_OK(
        item.AddAttr("commitdate", Column::MakeDate(std::move(v)), &stats));
  }
  {
    std::vector<Date> v;
    for (const I& it : d.items) v.push_back(it.receiptdate);
    MF_RETURN_NOT_OK(
        item.AddAttr("receiptdate", Column::MakeDate(std::move(v)), &stats));
  }
  MF_RETURN_NOT_OK(item.AddAttr(
      "shipmode",
      Column::MakeStr(
          StrField(d.items, [](const I& it) { return it.shipmode; })),
      &stats));
  MF_RETURN_NOT_OK(item.AddAttr(
      "shipinstruct",
      Column::MakeStr(
          StrField(d.items, [](const I& it) { return it.shipinstruct; })),
      &stats));

  // Set-valued attributes: index BATs [owner, element] (Section 3.3).
  {
    // Customer_orders: SET(A) of object references, grouped by customer.
    std::vector<std::pair<Oid, Oid>> pairs;
    for (size_t o = 0; o < d.orders.size(); ++o) {
      pairs.emplace_back(kCustomerBase + d.orders[o].cust, kOrderBase + o);
    }
    std::sort(pairs.begin(), pairs.end());
    std::vector<Oid> owners, elems;
    for (auto& [c, o] : pairs) {
      owners.push_back(c);
      elems.push_back(o);
    }
    db.Bind("Customer_orders",
            Bat(Column::MakeOid(std::move(owners)),
                Column::MakeOid(std::move(elems)),
                Properties{false, true, true, false}));
  }
  {
    // Order_item: items are generated grouped by order.
    std::vector<Oid> owners, elems;
    for (size_t i = 0; i < d.items.size(); ++i) {
      owners.push_back(kOrderBase + d.items[i].order);
      elems.push_back(kItemBase + i);
    }
    db.Bind("Order_item",
            Bat(Column::MakeOid(std::move(owners)),
                Column::MakeOid(std::move(elems)),
                Properties{false, true, true, true}));
  }
  {
    // Supplier_supplies index plus the tuple-field BATs of its elements
    // (Fig. 3). partsupps are generated grouped by supplier.
    std::vector<Oid> owners, elems;
    for (size_t i = 0; i < d.partsupps.size(); ++i) {
      owners.push_back(kSupplierBase + d.partsupps[i].supplier);
      elems.push_back(kSuppliesBase + i);
    }
    db.Bind("Supplier_supplies",
            Bat(Column::MakeOid(std::move(owners)),
                Column::MakeOid(std::move(elems)),
                Properties{false, true, true, true}));

    ClassLoader supplies(&db, "Supplier_supplies_elem", kSuppliesBase,
                         d.partsupps.size());
    std::vector<Oid> part_refs;
    std::vector<double> costs;
    std::vector<int32_t> avail;
    for (const auto& ps : d.partsupps) {
      part_refs.push_back(kPartBase + ps.part);
      costs.push_back(ps.cost);
      avail.push_back(ps.available);
    }
    // Bind the tuple fields under the conventional names.
    MF_RETURN_NOT_OK(supplies.AddAttr(
        "part", Column::MakeOid(std::move(part_refs)), &stats));
    MF_RETURN_NOT_OK(
        supplies.AddAttr("cost", Column::MakeDbl(std::move(costs)), &stats));
    MF_RETURN_NOT_OK(supplies.AddAttr(
        "available", Column::MakeInt(std::move(avail)), &stats));
    MF_ASSIGN_OR_RETURN(Bat p, db.Get("Supplier_supplies_elem_part"));
    MF_ASSIGN_OR_RETURN(Bat c, db.Get("Supplier_supplies_elem_cost"));
    MF_ASSIGN_OR_RETURN(Bat a, db.Get("Supplier_supplies_elem_available"));
    db.Bind("Supplier_supplies_part", p);
    db.Bind("Supplier_supplies_cost", c);
    db.Bind("Supplier_supplies_available", a);
  }

  stats.reorder_sec = SecondsSince(t2);
  return inst;
}

Result<std::shared_ptr<TpcdInstance>> MakeInstance(double scale_factor,
                                                   uint64_t seed) {
  TpcdData data = Generate(scale_factor, seed);
  return Load(data, scale_factor);
}

}  // namespace moaflat::tpcd
