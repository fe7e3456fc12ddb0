//! Self-contained HTML report for a load run.
//!
//! One file, zero dependencies at render *and* at view time: inline CSS,
//! inline SVG charts, no JavaScript, no external fonts — the report can
//! be attached to a CI run or mailed around and still render identically
//! (the wasmer-borealis `report.html.jinja` exemplar sets the style:
//! a setup table, a summary, striped result tables).
//!
//! Anatomy (documented in docs/OBSERVABILITY.md):
//! 1. header: run id, date-free provenance (mode, mix, seed, elapsed);
//! 2. summary tiles: total ops, throughput, overall p50/p95/p99/p99.9;
//! 3. experimental-setup table: target-provided `(setting, value)` rows;
//! 4. per-op latency table: min/p50/p95/p99/p99.9/max/mean per kind;
//! 5. time-series: throughput and p95 per window as SVG charts, so
//!    warmup ramps and degradation are visible at a glance.

use std::fmt::Write as _;

use super::{fmt_ns, LoadSummary};

/// Escapes text for HTML body and attribute positions.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

const CSS: &str = r#"
    body { margin: 1.5em; font-family: Arial, Helvetica, sans-serif; color: #1a1a2e; }
    h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 1.6em; }
    .subtitle { color: #555; margin-top: -0.6em; }
    code { font-family: ui-monospace, Menlo, Consolas, monospace; background: #f4f4f8; padding: 1px 4px; border-radius: 3px; }
    table { border-collapse: collapse; width: 100%; margin: 0.8em 0; }
    table td, table th { border: 1px solid #ddd; padding: 7px 10px; text-align: left; }
    table tr:nth-child(even) { background-color: #f7f7fa; }
    table tr:hover { background-color: #eef2f5; }
    table.experimental-setup thead tr { background-color: #04AA6D; color: white; }
    table.summary thead tr { background-color: rgb(70, 162, 188); color: white; }
    table.summary td.num, table.experimental-setup td.num { text-align: right; font-variant-numeric: tabular-nums; }
    .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 1em 0; }
    .tile { border: 1px solid #ddd; border-radius: 6px; padding: 10px 16px; min-width: 110px; background: #fafafc; }
    .tile .value { font-size: 1.45em; font-weight: bold; font-variant-numeric: tabular-nums; }
    .tile .label { color: #666; font-size: 0.8em; text-transform: uppercase; letter-spacing: 0.04em; }
    .chart { margin: 0.5em 0 1.5em 0; }
    .chart .caption { color: #555; font-size: 0.85em; margin-top: 2px; }
    svg text { font-family: Arial, Helvetica, sans-serif; }
"#;

/// An inline SVG line chart over per-window values. `fmt` renders axis
/// labels for the y extremes; x spans the run duration.
fn svg_chart(values: &[f64], stroke: &str, fill: &str, fmt: impl Fn(f64) -> String) -> String {
    const W: f64 = 760.0;
    const H: f64 = 120.0;
    const PAD_L: f64 = 70.0;
    const PAD_B: f64 = 4.0;
    const PAD_T: f64 = 6.0;
    if values.is_empty() {
        return "<p><em>no windows recorded</em></p>".to_string();
    }
    let max = values.iter().cloned().fold(0.0f64, f64::max).max(1e-9);
    let plot_w = W - PAD_L - 8.0;
    let plot_h = H - PAD_T - PAD_B;
    let x_of = |i: usize| {
        PAD_L + if values.len() == 1 { plot_w / 2.0 } else { plot_w * i as f64 / (values.len() - 1) as f64 }
    };
    let y_of = |v: f64| PAD_T + plot_h * (1.0 - (v / max).clamp(0.0, 1.0));
    let mut line = String::new();
    for (i, &v) in values.iter().enumerate() {
        let _ = write!(line, "{:.1},{:.1} ", x_of(i), y_of(v));
    }
    // Area under the line, closed along the baseline.
    let area = format!(
        "{}{:.1},{:.1} {:.1},{:.1}",
        line,
        x_of(values.len() - 1),
        PAD_T + plot_h,
        x_of(0),
        PAD_T + plot_h
    );
    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg viewBox="0 0 {W} {H}" width="{W}" height="{H}" role="img">"#
    );
    let _ = write!(
        svg,
        r##"<line x1="{PAD_L}" y1="{:.1}" x2="{:.1}" y2="{:.1}" stroke="#ccc" stroke-width="1"/>"##,
        PAD_T + plot_h,
        W - 8.0,
        PAD_T + plot_h
    );
    let _ = write!(
        svg,
        r#"<polygon points="{}" fill="{fill}"/>"#,
        area.trim_end()
    );
    let _ = write!(
        svg,
        r#"<polyline points="{}" fill="none" stroke="{stroke}" stroke-width="1.8"/>"#,
        line.trim_end()
    );
    let _ = write!(
        svg,
        r##"<text x="{:.1}" y="{:.1}" font-size="11" fill="#555" text-anchor="end">{}</text>"##,
        PAD_L - 6.0,
        PAD_T + 10.0,
        escape(&fmt(max))
    );
    let _ = write!(
        svg,
        r##"<text x="{:.1}" y="{:.1}" font-size="11" fill="#555" text-anchor="end">0</text>"##,
        PAD_L - 6.0,
        PAD_T + plot_h
    );
    svg.push_str("</svg>");
    svg
}

/// Renders the full report; write the result to the `--report` path.
pub fn render_html(summary: &LoadSummary) -> String {
    let mut out = String::with_capacity(16 * 1024);
    let _ = write!(
        out,
        "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"UTF-8\" />\n<title>chc load report — {}</title>\n<style>{CSS}</style>\n</head>\n<body>\n",
        escape(&summary.id)
    );
    let _ = write!(
        out,
        "<h1>chc load report — <code>{}</code></h1>\n<p class=\"subtitle\">{} · mix <code>{}</code> · seed {} · {:.2}s elapsed</p>\n",
        escape(&summary.id),
        escape(&summary.mode_desc),
        escape(&summary.mix.render()),
        summary.seed,
        summary.elapsed.as_secs_f64()
    );

    // Summary tiles.
    out.push_str("<section>\n<div class=\"tiles\">\n");
    let mut tiles = vec![
        (format!("{}", summary.total_ops), "operations"),
        (format!("{:.0} /s", summary.throughput()), "throughput"),
        (fmt_ns(summary.overall.p50), "p50 latency"),
        (fmt_ns(summary.overall.p95), "p95 latency"),
        (fmt_ns(summary.overall.p99), "p99 latency"),
        (fmt_ns(summary.overall.p999), "p99.9 latency"),
        (fmt_ns(summary.overall.max), "max latency"),
        (fmt_ns(summary.overall.mean.round() as u64), "mean latency"),
    ];
    if let Some(mem) = &summary.mem {
        tiles.push((chc_obs::format_bytes(mem.bytes_peak), "peak live memory"));
        tiles.push((chc_obs::format_bytes(mem.bytes_allocated), "bytes allocated"));
    }
    for (value, label) in tiles {
        let _ = writeln!(
            out,
            "<div class=\"tile\"><div class=\"value\">{}</div><div class=\"label\">{}</div></div>",
            escape(&value),
            label
        );
    }
    out.push_str("</div>\n</section>\n");

    // Experimental setup.
    out.push_str("<section>\n<h2>Experimental setup</h2>\n<table class=\"experimental-setup\">\n<thead><tr><th>Setting</th><th>Value</th></tr></thead>\n<tbody>\n");
    let config_rows = [
        ("mode".to_string(), summary.mode_desc.clone()),
        ("mix".to_string(), summary.mix.render()),
        ("threads".to_string(), summary.threads.to_string()),
        ("seed".to_string(), summary.seed.to_string()),
        ("window".to_string(), format!("{:?}", summary.window)),
    ];
    for (k, v) in config_rows.iter().chain(summary.setup.iter()) {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td class=\"num\">{}</td></tr>",
            escape(k),
            escape(v)
        );
    }
    out.push_str("</tbody>\n</table>\n</section>\n");

    // Per-op latency table.
    out.push_str("<section>\n<h2>Latency by operation</h2>\n<table class=\"summary\">\n<thead><tr><th>op</th><th>ops</th><th>ok</th><th>fail</th><th>min</th><th>p50</th><th>p95</th><th>p99</th><th>p99.9</th><th>max</th><th>mean</th></tr></thead>\n<tbody>\n");
    let mut rows: Vec<(String, u64, u64, u64, _)> = summary
        .per_op
        .iter()
        .map(|o| (o.kind.name().to_string(), o.ops, o.ok, o.failed, o.latency))
        .collect();
    rows.push((
        "all".to_string(),
        summary.total_ops,
        summary.per_op.iter().map(|o| o.ok).sum(),
        summary.per_op.iter().map(|o| o.failed).sum(),
        summary.overall,
    ));
    for (name, ops, ok, fail, s) in rows {
        let _ = writeln!(
            out,
            "<tr><td><code>{}</code></td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td class=\"num\">{}</td></tr>",
            escape(&name),
            ops,
            ok,
            fail,
            fmt_ns(s.min),
            fmt_ns(s.p50),
            fmt_ns(s.p95),
            fmt_ns(s.p99),
            fmt_ns(s.p999),
            fmt_ns(s.max),
            fmt_ns(s.mean as u64),
        );
    }
    out.push_str("</tbody>\n</table>\n</section>\n");

    // Time series.
    let window_s = summary.window.as_secs_f64().max(1e-9);
    let throughput: Vec<f64> = summary.windows.iter().map(|w| w.ops as f64 / window_s).collect();
    let p95: Vec<f64> = summary.windows.iter().map(|w| w.p95_ns as f64).collect();
    out.push_str("<section>\n<h2>Throughput over time</h2>\n<div class=\"chart\">\n");
    out.push_str(&svg_chart(&throughput, "#04AA6D", "rgba(4,170,109,0.12)", |v| {
        format!("{v:.0}/s")
    }));
    let _ = write!(
        out,
        "<div class=\"caption\">operations per second, {} windows of {:?}</div>\n</div>\n",
        summary.windows.len(),
        summary.window
    );
    out.push_str("<h2>p95 latency over time</h2>\n<div class=\"chart\">\n");
    out.push_str(&svg_chart(&p95, "rgb(70,162,188)", "rgba(70,162,188,0.12)", |v| {
        fmt_ns(v as u64)
    }));
    let _ = write!(
        out,
        "<div class=\"caption\">per-window 95th-percentile latency (windows of {:?})</div>\n</div>\n</section>\n",
        summary.window
    );

    out.push_str("<p class=\"subtitle\">generated by <code>chc load</code> — schema <code>chc-load/1</code></p>\n</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::super::{hospital_target, run_load, LoadConfig, Mode, StopRule};
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_is_self_contained_and_complete() {
        let target = hospital_target(60, 0.1, 11);
        let cfg = LoadConfig {
            id: "report-test".to_string(),
            stop: StopRule::Ops(200),
            mode: Mode::Closed { threads: 2, think: Duration::ZERO },
            slow_match: None,
            ..LoadConfig::default()
        };
        let summary = run_load(&target, &cfg);
        let html = render_html(&summary);
        // Self-contained: no external fetches of any kind.
        for banned in ["<script", "http://", "https://", "src=", "@import"] {
            assert!(!html.contains(banned), "report not self-contained: found {banned}");
        }
        // The pieces verify.sh and the acceptance criteria look for.
        for needed in [
            "<!DOCTYPE html>",
            "charset=\"UTF-8\"",
            "table class=\"summary\"",
            "table class=\"experimental-setup\"",
            "<svg",
            "p99.9",
            "report-test",
            "validate",
            "Throughput over time",
        ] {
            assert!(html.contains(needed), "report missing {needed}");
        }
        // Every op kind that ran has a row.
        for op in &summary.per_op {
            assert!(html.contains(&format!("<code>{}</code>", op.kind.name())));
        }
    }

    #[test]
    fn escape_covers_html_metacharacters() {
        assert_eq!(escape("a<b>&\"'"), "a&lt;b&gt;&amp;&quot;&#39;");
    }

    #[test]
    fn chart_handles_empty_and_single_point() {
        assert!(svg_chart(&[], "#000", "#fff", |v| format!("{v}")).contains("no windows"));
        let one = svg_chart(&[5.0], "#000", "#fff", |v| format!("{v:.0}"));
        assert!(one.contains("<svg") && one.contains("polyline"));
    }
}
