#include "moa/query.h"

#include "moa/result_view.h"

namespace moaflat::moa {

Result<std::string> QueryResult::Render(size_t max_elems) const {
  ResultView view(&env);
  return view.Render(*translation.result, max_elems);
}

Result<QueryResult> RunMoa(const kernel::ExecContext& ctx, const Database& db,
                           const std::string& moa_text) {
  Rewriter rewriter(&db);
  MF_ASSIGN_OR_RETURN(Translation t, rewriter.TranslateText(moa_text));

  QueryResult qr;
  qr.env = db.env();  // shared columns, cheap copy
  mil::MilInterpreter interp(&qr.env, &ctx);
  MF_RETURN_NOT_OK(interp.Run(t.program));
  qr.translation = std::move(t);
  qr.traces = interp.traces();
  return qr;
}

}  // namespace moaflat::moa
