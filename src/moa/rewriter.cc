#include "moa/rewriter.h"

#include <algorithm>
#include <cctype>

#include "mil/ops.h"
#include "moa/parser.h"

namespace moaflat::moa {
namespace {

using mil::L;
using mil::MilArg;
using mil::V;

/// MIL select operator implementing comparison `cmp` against a literal.
std::string SelectOpFor(const std::string& cmp) {
  if (cmp == "=") return "select";
  return "select." + cmp;
}

std::string UpperName(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

}  // namespace

std::string Translation::ToString() const {
  return program.ToString() + "# structure: " + result->ToString() + "\n";
}

Result<Translation> Rewriter::TranslateText(const std::string& moa_text) {
  MF_ASSIGN_OR_RETURN(ExprPtr ast, ParseMoa(moa_text));
  return Translate(*ast);
}

Result<Translation> Rewriter::Translate(const Expr& query) {
  b_ = mil::MilBuilder();
  used_names_.clear();

  // Top-level scalar aggregate, e.g. Q6-style
  // sum(project[*(extendedprice, discount)](select[...](Item))):
  // translate the collection, then one whole-column aggregate.
  if (query.kind == Expr::Kind::kCall && mil::AggOf(query.name) &&
      query.args.size() == 1) {
    MF_ASSIGN_OR_RETURN(Rel rel, TransCollection(*query.args[0], nullptr));
    if (rel.value->kind != StructExpr::Kind::kAtom) {
      return Status::NotImplemented(
          "top-level aggregates need an atomic element value; use "
          "project[expr](...) to pick one");
    }
    const std::string agg =
        Emit(UpperName(query.name), query.name, {V(rel.value->var)});
    Translation t;
    t.result = StructExpr::Atom(agg);
    t.program = b_.Finish({agg});
    return t;
  }

  MF_ASSIGN_OR_RETURN(Rel rel, TransCollection(query, nullptr));

  StructPtr result =
      StructExpr::Set(rel.index.empty() ? rel.ids : rel.index, rel.value);
  Translation t;
  std::vector<std::string> result_vars;
  CollectResultVars(result, &result_vars);
  t.program = b_.Finish(std::move(result_vars));
  t.result = std::move(result);
  return t;
}

std::string Rewriter::Emit(const std::string& preferred, std::string op,
                           std::vector<MilArg> args) {
  std::string name = preferred;
  int suffix = 1;
  while (used_names_.count(name) > 0) {
    name = preferred + std::to_string(++suffix);
  }
  used_names_.insert(name);
  b_.Let(name, std::move(op), std::move(args));
  return name;
}

void Rewriter::CollectResultVars(const StructPtr& s,
                                 std::vector<std::string>* out) {
  switch (s->kind) {
    case StructExpr::Kind::kAtom:
      out->push_back(s->var);
      break;
    case StructExpr::Kind::kObjectRef:
      break;
    case StructExpr::Kind::kTuple:
      for (const auto& [name, field] : s->fields) {
        CollectResultVars(field, out);
      }
      break;
    case StructExpr::Kind::kSet:
      out->push_back(s->var);
      CollectResultVars(s->elem, out);
      break;
  }
}

Result<Rewriter::Rel> Rewriter::TransCollection(const Expr& e,
                                                const Rel* outer) {
  switch (e.kind) {
    case Expr::Kind::kExtent: {
      MF_ASSIGN_OR_RETURN(const ClassDef* cls,
                          db_->schema().GetClass(e.name));
      if (!db_->env().Has(e.name)) {
        return Status::KeyError("extent BAT '" + e.name + "' not loaded");
      }
      Rel rel;
      rel.ids = e.name;
      rel.value = StructExpr::ObjectRef(e.name);
      rel.cls = cls;
      rel.full = true;
      return rel;
    }

    case Expr::Kind::kAttrPath: {
      if (outer == nullptr) {
        return Status::Invalid("attribute path '" + e.ToString() +
                               "' outside of an element context");
      }
      return TransSetAttr(e.path, *outer);
    }

    case Expr::Kind::kSelect: {
      if (e.args.size() != 1) {
        return Status::Invalid("select expects one input collection");
      }
      MF_ASSIGN_OR_RETURN(Rel rel, TransCollection(*e.args[0], outer));
      for (const ExprPtr& pred : e.params) {
        MF_RETURN_NOT_OK(ApplySelect(&rel, *pred));
      }
      return rel;
    }

    case Expr::Kind::kProject: {
      if (e.args.size() != 1) {
        return Status::Invalid("project expects one input collection");
      }
      MF_ASSIGN_OR_RETURN(Rel rel, TransCollection(*e.args[0], outer));
      if (e.params.size() == 1 && e.param_names[0].empty()) {
        // project[expr](X): element value becomes the single expression.
        MF_ASSIGN_OR_RETURN(StructPtr field, FieldOf(rel, *e.params[0]));
        rel.value = field;
        rel.cls = nullptr;
        return rel;
      }
      std::vector<std::pair<std::string, StructPtr>> fields;
      for (size_t i = 0; i < e.params.size(); ++i) {
        std::string name = e.param_names[i];
        if (name.empty()) name = "f" + std::to_string(i + 1);
        MF_ASSIGN_OR_RETURN(StructPtr field, FieldOf(rel, *e.params[i]));
        fields.emplace_back(name, std::move(field));
      }
      rel.value = StructExpr::Tuple(std::move(fields));
      rel.cls = nullptr;
      return rel;
    }

    case Expr::Kind::kNest: {
      if (e.args.size() != 1) {
        return Status::Invalid("nest expects one input collection");
      }
      MF_ASSIGN_OR_RETURN(Rel rel, TransCollection(*e.args[0], outer));
      if (e.params.empty()) {
        return Status::Invalid("nest needs at least one grouping attribute");
      }
      // Grouping phase (Fig. 10 lines 6-9): group on the first attribute,
      // refine with the rest.
      std::vector<std::string> attr_vals;
      for (const ExprPtr& p : e.params) {
        MF_ASSIGN_OR_RETURN(std::string v, ValueOf(rel, *p));
        attr_vals.push_back(v);
      }
      std::string grp = Emit("class", "group", {V(attr_vals[0])});
      for (size_t k = 1; k < attr_vals.size(); ++k) {
        grp = Emit("class", "group", {V(grp), V(attr_vals[k])});
      }
      // INDEX := mirror(grp) is the SET index [group, element].
      const std::string index = Emit("INDEX", "mirror", {V(grp)});
      const std::string gids = Emit("groups", "hunique", {V(index)});

      // One representative value per group for each grouping attribute
      // (paper: `YEAR := join(class.mirror, years).unique`).
      std::vector<std::pair<std::string, StructPtr>> fields;
      for (size_t k = 0; k < e.params.size(); ++k) {
        std::string label = "g" + std::to_string(k + 1);
        if (e.params[k]->kind == Expr::Kind::kAttrPath) {
          label = e.params[k]->path.back();
        }
        const std::string joined =
            Emit(UpperName(label) + "_all", "join",
                 {V(index), V(attr_vals[k])});
        const std::string per_group =
            Emit(UpperName(label), "unique", {V(joined)});
        fields.emplace_back(label, StructExpr::Atom(per_group));
      }
      fields.emplace_back("group", StructExpr::Set(index, rel.value));

      Rel out;
      out.ids = gids;
      out.value = StructExpr::Tuple(std::move(fields));
      out.full = false;
      return out;
    }

    case Expr::Kind::kUnion:
    case Expr::Kind::kDiff:
    case Expr::Kind::kIntersect: {
      if (e.args.size() != 2) {
        return Status::Invalid("set operation expects two inputs");
      }
      MF_ASSIGN_OR_RETURN(Rel l, TransCollection(*e.args[0], outer));
      MF_ASSIGN_OR_RETURN(Rel r, TransCollection(*e.args[1], outer));
      if (l.cls == nullptr || l.cls != r.cls) {
        return Status::NotImplemented(
            "set operations are supported on object collections of one "
            "class");
      }
      const char* op = e.kind == Expr::Kind::kUnion     ? "kunion"
                       : e.kind == Expr::Kind::kDiff    ? "kdiff"
                                                        : "kintersect";
      Rel out = l;
      out.ids = Emit("setop", op, {V(l.ids), V(r.ids)});
      out.full = false;
      return out;
    }

    case Expr::Kind::kUnnest: {
      // unnest[attr](X): flattens one set-valued field — each (owner,
      // member) pair of the SET index becomes an element of the result.
      // In the flattened representation this is almost free: the index
      // BAT *is* the pair list; mark() keys the pairs with fresh oids.
      if (e.args.size() != 1 || e.params.size() != 1 ||
          e.params[0]->kind != Expr::Kind::kAttrPath) {
        return Status::Invalid("unnest expects unnest[attr](collection)");
      }
      MF_ASSIGN_OR_RETURN(Rel rel, TransCollection(*e.args[0], outer));
      MF_ASSIGN_OR_RETURN(StructPtr set_field,
                          FieldOf(rel, *e.params[0]));
      if (set_field->kind != StructExpr::Kind::kSet) {
        return Status::TypeError("unnest attribute is not set-valued");
      }
      const std::string& index = set_field->var;  // [owner, member]
      // Fresh pair oids, positionally shared by both sides of the index.
      const std::string owner_pairs =
          Emit("pairs_by_owner", "mark", {V(index), L(Value::MakeOid(0))});
      const std::string by_owner =
          Emit("pair_owner", "mirror", {V(owner_pairs)});  // [pair, owner]
      const std::string index_m = Emit("index_m", "mirror", {V(index)});
      const std::string member_pairs = Emit(
          "pairs_by_member", "mark", {V(index_m), L(Value::MakeOid(0))});
      const std::string by_member =
          Emit("pair_member", "mirror", {V(member_pairs)});

      std::vector<std::pair<std::string, StructPtr>> fields;
      // Owner-keyed scalar fields move to pair keys via [pair, owner].
      if (rel.value->kind == StructExpr::Kind::kTuple) {
        for (const auto& [name, f] : rel.value->fields) {
          if (f->kind == StructExpr::Kind::kAtom) {
            fields.emplace_back(
                name, StructExpr::Atom(Emit(name + "_flat", "join",
                                            {V(by_owner), V(f->var)})));
          }
        }
      } else if (rel.value->kind == StructExpr::Kind::kObjectRef) {
        // [pair, owner-oid] is itself the owner reference per element.
        fields.emplace_back("owner", StructExpr::Atom(by_owner));
      }
      // Member-side values.
      if (set_field->elem->kind == StructExpr::Kind::kTuple) {
        for (const auto& [name, f] : set_field->elem->fields) {
          if (f->kind == StructExpr::Kind::kAtom) {
            fields.emplace_back(
                name, StructExpr::Atom(Emit(name + "_flat", "join",
                                            {V(by_member), V(f->var)})));
          }
        }
      } else {
        fields.emplace_back(e.params[0]->path.back(),
                            StructExpr::Atom(by_member));
      }

      Rel out;
      out.ids = by_owner;  // head-unique pair oids
      out.value = StructExpr::Tuple(std::move(fields));
      out.full = false;
      return out;
    }

    default:
      return Status::Invalid("expression '" + e.ToString() +
                             "' is not a collection");
  }
}

Result<Rewriter::Rel> Rewriter::TransSetAttr(
    const std::vector<std::string>& path, const Rel& outer) {
  if (path.size() != 1) {
    return Status::NotImplemented(
        "set-valued attribute paths must be a single component");
  }
  if (outer.cls == nullptr) {
    return Status::Invalid("set attribute on a non-object element");
  }
  const AttrDef* attr = outer.cls->FindAttr(path[0]);
  if (attr == nullptr) {
    return Status::KeyError("class " + outer.cls->name + " has no attribute " +
                            path[0]);
  }
  if (attr->kind != AttrDef::Kind::kSetRef &&
      attr->kind != AttrDef::Kind::kSetTuple) {
    return Status::TypeError("attribute " + path[0] + " is not set-valued");
  }

  const std::string attr_bat =
      Database::AttrBatName(outer.cls->name, attr->name);
  Rel rel;
  if (outer.full) {
    rel.index = attr_bat;
    rel.full = true;  // the element ids are still unrestricted
  } else {
    rel.index = Emit(path[0] + "_idx", "semijoin",
                     {V(attr_bat), V(outer.ids)});
    rel.full = false;
  }
  rel.ids = Emit(path[0] + "_elems", "mirror", {V(rel.index)});

  if (attr->kind == AttrDef::Kind::kSetRef) {
    MF_ASSIGN_OR_RETURN(const ClassDef* elem_cls,
                        db_->schema().GetClass(attr->ref_class));
    // The elements are object oids of the target class (SET(A) storage
    // optimization of Section 3.3): `ids` (= mirror(index)) already
    // exposes them as heads, and navigation uses the target class's
    // attribute BATs directly.
    rel.value = StructExpr::ObjectRef(attr->ref_class);
    rel.cls = elem_cls;
  } else {
    std::vector<std::pair<std::string, StructPtr>> fields;
    for (const AttrDef& f : attr->tuple_fields) {
      fields.emplace_back(
          f.name, StructExpr::Atom(Database::FieldBatName(
                      outer.cls->name, attr->name, f.name)));
    }
    rel.value = StructExpr::Tuple(std::move(fields));
  }
  return rel;
}

Status Rewriter::ApplySelect(Rel* rel, const Expr& pred) {
  if (pred.kind != Expr::Kind::kCall) {
    return Status::Invalid("selection predicate must be an operator call");
  }

  // Nested collections (§4.3.2): compute T(f(X)) on the flat element
  // representation, then reduce the SET index by one semijoin.
  auto reduce_index = [&](const std::string& qualifying) -> Status {
    if (!rel->index.empty()) {
      const std::string elem_first =
          Emit("byelem", "mirror", {V(rel->index)});
      const std::string reduced =
          Emit("reduced", "semijoin", {V(elem_first), V(qualifying)});
      rel->index = Emit("index", "mirror", {V(reduced)});
      rel->ids = Emit("elems", "mirror", {V(rel->index)});
    } else {
      rel->ids = qualifying;
    }
    rel->full = false;
    return Status::OK();
  };

  const bool is_cmp = mil::CmpOf(pred.name).has_value();
  const bool is_like = pred.name == "like";

  if ((is_cmp || is_like) && pred.args.size() == 2 &&
      pred.args[0]->kind == Expr::Kind::kAttrPath &&
      pred.args[1]->kind == Expr::Kind::kLiteral) {
    const std::vector<std::string>& path = pred.args[0]->path;
    const Value& lit = pred.args[1]->lit;
    const std::string sel_op = is_like ? "select.like" : SelectOpFor(pred.name);

    // Pushdown on a full extent: select directly on the (tail-sorted)
    // target attribute BAT, then walk reference hops backwards with joins
    // (exactly the Fig. 10 lines 1-2 shape for order.clerk).
    if (rel->full && rel->cls != nullptr) {
      const ClassDef* cls = rel->cls;
      std::vector<std::string> hop_bats;  // ref BATs along the path
      for (size_t k = 0; k + 1 < path.size(); ++k) {
        const AttrDef* a = cls->FindAttr(path[k]);
        if (a == nullptr || a->kind != AttrDef::Kind::kRef) {
          hop_bats.clear();
          break;
        }
        hop_bats.push_back(Database::AttrBatName(cls->name, path[k]));
        MF_ASSIGN_OR_RETURN(cls, db_->schema().GetClass(a->ref_class));
      }
      const AttrDef* last =
          hop_bats.size() + 1 == path.size() ? cls->FindAttr(path.back())
                                             : nullptr;
      if (last != nullptr && last->kind == AttrDef::Kind::kBase) {
        std::string cur =
            Emit(path.back() + "_sel", sel_op,
                 {V(Database::AttrBatName(cls->name, path.back())), L(lit)});
        for (auto it = hop_bats.rbegin(); it != hop_bats.rend(); ++it) {
          cur = Emit("via_" + *it, "join", {V(*it), V(cur)});
        }
        rel->ids = cur;
        rel->full = false;
        return Status::OK();
      }
    }

    // General case: materialize the attribute over the current elements,
    // then select.
    MF_ASSIGN_OR_RETURN(std::string v, ValueOf(*rel, *pred.args[0]));
    const std::string sel = Emit("sel", sel_op, {V(v), L(lit)});
    return reduce_index(sel);
  }

  // Fully general predicate: vectorize with multiplex into a [id, bit]
  // BAT and select the true rows.
  std::vector<MilArg> margs;
  for (const ExprPtr& a : pred.args) {
    if (a->kind == Expr::Kind::kLiteral) {
      margs.push_back(L(a->lit));
    } else {
      MF_ASSIGN_OR_RETURN(std::string v, ValueOf(*rel, *a));
      margs.push_back(V(v));
    }
  }
  const std::string bits = Emit("pred", "[" + pred.name + "]", margs);
  const std::string sel =
      Emit("sel", "select", {V(bits), L(Value::Bit(true))});
  return reduce_index(sel);
}

Result<std::string> Rewriter::ResolvePath(
    const Rel& rel, const std::vector<std::string>& path) {
  // Tuple elements: the leading component names a field.
  if (rel.value->kind == StructExpr::Kind::kTuple) {
    for (const auto& [name, field] : rel.value->fields) {
      if (name == path[0]) {
        if (field->kind != StructExpr::Kind::kAtom || path.size() != 1) {
          return Status::NotImplemented(
              "navigation beyond tuple field '" + path[0] +
              "' is not supported");
        }
        if (rel.full) return field->var;
        // Align the (possibly global) field BAT with the current ids.
        return Emit(path[0] + "_of", "semijoin", {V(field->var), V(rel.ids)});
      }
    }
    return Status::KeyError("tuple has no field '" + path[0] + "'");
  }

  if (rel.cls == nullptr) {
    return Status::Invalid("cannot resolve path over a non-object element");
  }

  const ClassDef* cls = rel.cls;
  std::string cur;  // [elem_id, current value]
  for (size_t k = 0; k < path.size(); ++k) {
    const AttrDef* a = cls->FindAttr(path[k]);
    if (a == nullptr) {
      return Status::KeyError("class " + cls->name + " has no attribute '" +
                              path[k] + "'");
    }
    const std::string attr_bat = Database::AttrBatName(cls->name, path[k]);
    if (k == 0) {
      if (rel.full) {
        cur = attr_bat;
      } else {
        cur = Emit(path[k] + "s", "semijoin", {V(attr_bat), V(rel.ids)});
      }
    } else {
      cur = Emit(path[k] + "s", "join", {V(cur), V(attr_bat)});
    }
    if (a->kind == AttrDef::Kind::kRef) {
      MF_ASSIGN_OR_RETURN(cls, db_->schema().GetClass(a->ref_class));
    } else if (k + 1 != path.size()) {
      return Status::TypeError("attribute '" + path[k] +
                               "' is not an object reference");
    }
  }
  return cur;
}

Result<std::string> Rewriter::ValueOf(const Rel& rel, const Expr& e) {
  switch (e.kind) {
    case Expr::Kind::kAttrPath:
      return ResolvePath(rel, e.path);

    case Expr::Kind::kLiteral: {
      // A constant per element: [ids, lit].
      return Emit("const", "project", {V(rel.ids), L(e.lit)});
    }

    case Expr::Kind::kTupleIdx: {
      if (rel.value->kind != StructExpr::Kind::kTuple) {
        return Status::TypeError("%N access on a non-tuple element");
      }
      const size_t i = static_cast<size_t>(e.index);
      if (i < 1 || i > rel.value->fields.size()) {
        return Status::OutOfRange("%N index out of range");
      }
      const StructPtr& field = rel.value->fields[i - 1].second;
      if (field->kind != StructExpr::Kind::kAtom) {
        return Status::TypeError("%N names a non-atomic field");
      }
      return field->var;
    }

    case Expr::Kind::kCall: {
      if (mil::AggOf(e.name)) return AggregateOverSet(rel, e);
      // Vectorized scalar computation (multiplex).
      std::vector<MilArg> margs;
      for (const ExprPtr& a : e.args) {
        if (a->kind == Expr::Kind::kLiteral) {
          margs.push_back(L(a->lit));
        } else {
          MF_ASSIGN_OR_RETURN(std::string v, ValueOf(rel, *a));
          margs.push_back(V(v));
        }
      }
      return Emit("mx", "[" + e.name + "]", margs);
    }

    default:
      return Status::NotImplemented("cannot evaluate '" + e.ToString() +
                                    "' per element");
  }
}

Result<StructPtr> Rewriter::FieldOf(const Rel& rel, const Expr& e) {
  // Nested collections as fields: set-valued attribute (possibly with a
  // selection applied, §4.3.2).
  if (e.kind == Expr::Kind::kAttrPath && rel.cls != nullptr) {
    const AttrDef* a = rel.cls->FindAttr(e.path[0]);
    if (a != nullptr && (a->kind == AttrDef::Kind::kSetRef ||
                         a->kind == AttrDef::Kind::kSetTuple)) {
      MF_ASSIGN_OR_RETURN(Rel nested, TransSetAttr(e.path, rel));
      return StructExpr::Set(nested.index, nested.value);
    }
  }
  if (e.kind == Expr::Kind::kSelect || e.kind == Expr::Kind::kNest) {
    MF_ASSIGN_OR_RETURN(Rel nested, TransCollection(e, &rel));
    if (nested.index.empty()) {
      return Status::NotImplemented(
          "nested collection field without a SET index");
    }
    return StructExpr::Set(nested.index, nested.value);
  }
  if (e.kind == Expr::Kind::kTupleIdx &&
      rel.value->kind == StructExpr::Kind::kTuple) {
    const size_t i = static_cast<size_t>(e.index);
    if (i >= 1 && i <= rel.value->fields.size()) {
      const StructPtr& f = rel.value->fields[i - 1].second;
      if (f->kind == StructExpr::Kind::kSet) return f;
    }
  }
  // A named tuple field that is itself a set (e.g. the result of a
  // nested-set selection bound by an enclosing project).
  if (e.kind == Expr::Kind::kAttrPath && e.path.size() == 1 &&
      rel.value->kind == StructExpr::Kind::kTuple) {
    for (const auto& [name, f] : rel.value->fields) {
      if (name == e.path[0] && f->kind == StructExpr::Kind::kSet) return f;
    }
  }
  MF_ASSIGN_OR_RETURN(std::string v, ValueOf(rel, e));
  return StructExpr::Atom(v);
}

Result<std::string> Rewriter::AggregateOverSet(const Rel& rel,
                                               const Expr& call) {
  if (call.args.size() != 1) {
    return Status::Invalid(call.name + " expects one argument");
  }
  const Expr& arg = *call.args[0];

  // Resolve the argument to (index [id, elem], element value BAT).
  std::string index;
  std::string elem_val;

  if (arg.kind == Expr::Kind::kProject && arg.args.size() == 1 &&
      arg.params.size() == 1) {
    // sum(project[revenue](%2)) — project a field out of a nested set.
    MF_ASSIGN_OR_RETURN(StructPtr set_field, FieldOf(rel, *arg.args[0]));
    if (set_field->kind != StructExpr::Kind::kSet) {
      return Status::TypeError("aggregate argument is not a set");
    }
    index = set_field->var;
    const Expr& picked = *arg.params[0];
    if (picked.kind != Expr::Kind::kAttrPath || picked.path.size() != 1) {
      return Status::NotImplemented(
          "aggregate projections must name one element attribute");
    }
    if (set_field->elem->kind == StructExpr::Kind::kTuple) {
      bool found = false;
      for (const auto& [name, f] : set_field->elem->fields) {
        if (name == picked.path[0] &&
            f->kind == StructExpr::Kind::kAtom) {
          elem_val = f->var;
          found = true;
        }
      }
      if (!found) {
        return Status::KeyError("set element has no field '" +
                                picked.path[0] + "'");
      }
    } else {
      return Status::NotImplemented("aggregate over non-tuple set elements");
    }
  } else {
    // sum(%2) / count(supplies) — aggregate a set field directly.
    MF_ASSIGN_OR_RETURN(StructPtr set_field, FieldOf(rel, arg));
    if (set_field->kind != StructExpr::Kind::kSet) {
      return Status::TypeError("aggregate argument is not a set");
    }
    index = set_field->var;
    if (set_field->elem->kind == StructExpr::Kind::kAtom) {
      elem_val = set_field->elem->var;
    } else if (call.name == "count") {
      // count needs no element values: aggregate the index itself.
      return Emit(UpperName(call.name), "{count}", {V(index)});
    } else {
      return Status::NotImplemented(
          "aggregate needs atomic set elements; project a field first");
    }
  }

  // join the SET index with the element values, then one bulk
  // set-aggregate — "nested aggregates in one go" (Section 4.2).
  const std::string joined =
      Emit("pergroup", "join", {V(index), V(elem_val)});
  return Emit(UpperName(call.name), "{" + call.name + "}", {V(joined)});
}

}  // namespace moaflat::moa
