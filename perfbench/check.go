package main

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"

	"templar/internal/fragment"
	"templar/internal/joinpath"
	"templar/internal/keyword"
	"templar/internal/nlidb"
	"templar/internal/qfg"
	"templar/internal/templar"
	"templar/internal/workload"
	"templar/pkg/api"
)

// Answers are compared as canonical strings built from the same fields on
// both sides: the wire response the client decoded, and the engine result
// of a direct templar.System call on the same input.

func fnum(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func translateKey(sql string, score float64, tie bool) string {
	return sql + "|" + fnum(score) + "|" + strconv.FormatBool(tie)
}

func wireTranslate(resp *api.TranslateResponse) string {
	parts := make([]string, len(resp.Results))
	for i, r := range resp.Results {
		if r.Error != nil {
			parts[i] = "error:" + r.Error.Code
			continue
		}
		parts[i] = translateKey(r.SQL, r.Score, r.Tie)
	}
	return strings.Join(parts, "\n")
}

func wireMap(resp *api.MapKeywordsResponse) string {
	var b strings.Builder
	for _, c := range resp.Configurations {
		b.WriteString(fnum(c.Score))
		for _, m := range c.Mappings {
			b.WriteString(" " + m.Fragment)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func wireInfer(resp *api.InferJoinsResponse) string {
	var b strings.Builder
	for _, p := range resp.Paths {
		b.WriteString(fnum(p.Goodness))
		for _, e := range p.Edges {
			b.WriteString(" " + e.Join)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func engineMap(cfgs []keyword.Configuration) string {
	var b strings.Builder
	for _, c := range cfgs {
		b.WriteString(fnum(c.Score))
		for _, m := range c.Mappings {
			b.WriteString(" " + m.Fragment(fragment.Full).String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func engineInfer(paths []joinpath.Path) string {
	var b strings.Builder
	for _, p := range paths {
		b.WriteString(fnum(p.Goodness))
		for _, e := range p.Edges {
			b.WriteString(" " + e.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func engineTranslate(tr *nlidb.Translation, err error) string {
	if err != nil {
		return "error:" + api.CodeUnprocessable
	}
	return translateKey(tr.SQL, tr.Score, tr.Tie)
}

// toKeywords converts wire keywords to engine keywords, as the server's
// request decoder does.
func toKeywords(in api.KeywordsInput) ([]keyword.Keyword, error) {
	if in.Spec != "" {
		return keyword.ParseSpec(in.Spec)
	}
	out := make([]keyword.Keyword, len(in.Keywords))
	for i, kj := range in.Keywords {
		kw := keyword.Keyword{Text: kj.Text}
		switch strings.ToLower(kj.Context) {
		case "select":
			kw.Meta.Context = fragment.Select
		case "where":
			kw.Meta.Context = fragment.Where
		case "from":
			kw.Meta.Context = fragment.From
		default:
			return nil, fmt.Errorf("keyword %d: unknown context %q", i, kj.Context)
		}
		kw.Meta.Op = kj.Op
		if kj.Agg != "" {
			kw.Meta.Aggs = []string{strings.ToUpper(kj.Agg)}
		}
		kw.Meta.GroupBy = kj.GroupBy
		out[i] = kw
	}
	return out, nil
}

// inferTopK mirrors the infer-joins route's default.
func inferTopK(k int) int {
	if k <= 0 {
		return 3
	}
	return k
}

// direct answers a read request with direct calls on sys: the expected
// answer the served response must equal. With a tracer, each call is
// recorded as a templar.* span of request req.
func direct(ctx context.Context, sys *templar.System, r *workload.Request, tr *tracer, req int) (string, error) {
	switch r.Op {
	case workload.OpMapKeywords:
		kws, err := toKeywords(r.MapKeywords.KeywordsInput)
		if err != nil {
			return "", err
		}
		id := tr.start("templar.map_keywords", 0, req)
		cfgs, err := sys.MapKeywords(ctx, kws, &templar.CallOptions{TopK: r.MapKeywords.TopK})
		tr.end(id)
		if err != nil {
			return "", err
		}
		return engineMap(cfgs), nil
	case workload.OpInferJoins:
		id := tr.start("templar.infer_joins", 0, req)
		paths, err := sys.InferJoins(ctx, r.InferJoins.Relations, &templar.CallOptions{TopK: inferTopK(r.InferJoins.TopK)})
		tr.end(id)
		if err != nil {
			return "", err
		}
		return engineInfer(paths), nil
	case workload.OpTranslate:
		parts := make([]string, len(r.Translate.Queries))
		for i, in := range r.Translate.Queries {
			kws, err := toKeywords(in)
			if err != nil {
				return "", err
			}
			id := tr.start("templar.translate", 0, req)
			tr2, err := sys.Translate(ctx, kws, &templar.CallOptions{})
			tr.end(id)
			parts[i] = engineTranslate(tr2, err)
		}
		return strings.Join(parts, "\n"), nil
	}
	return "", fmt.Errorf("direct: unsupported op %q", r.Op)
}

// snapshotsEqual compares two QFG snapshots the way the store codec would
// serialize them: the interner table in ID order, the scalars, and every
// compiled array, with float64 weights compared bit for bit.
func snapshotsEqual(a, b *qfg.Snapshot) error {
	if !reflect.DeepEqual(a.Interner().Fragments(), b.Interner().Fragments()) {
		return fmt.Errorf("interner tables differ (%d vs %d fragments)", a.Interner().Len(), b.Interner().Len())
	}
	pa, pb := a.Parts(), b.Parts()
	if pa.Obscurity != pb.Obscurity || pa.Queries != pb.Queries {
		return fmt.Errorf("scalars differ: %d vs %d queries", pa.Queries, pb.Queries)
	}
	if !reflect.DeepEqual(pa.NV, pb.NV) || !reflect.DeepEqual(pa.RowStart, pb.RowStart) ||
		!reflect.DeepEqual(pa.ColID, pb.ColID) || !reflect.DeepEqual(pa.NECount, pb.NECount) {
		return fmt.Errorf("compiled arrays differ")
	}
	if len(pa.Co) != len(pb.Co) {
		return fmt.Errorf("co-occurrence arrays differ in length: %d vs %d", len(pa.Co), len(pb.Co))
	}
	for i := range pa.Co {
		if math.Float64bits(pa.Co[i]) != math.Float64bits(pb.Co[i]) {
			return fmt.Errorf("co-occurrence weight %d differs", i)
		}
	}
	return nil
}
