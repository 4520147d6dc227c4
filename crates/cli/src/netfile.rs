//! The CLI's JSON documents, written and read with the workspace's JSON
//! codec ([`ballfit_json`]).
//!
//! A network file (`generate --out`, read back by `--net`) is one object:
//!
//! ```text
//! {"scenario":"sphere","shape_seed":1,"radio_range":0.41,
//!  "positions":[[x,y,z],...],"is_surface":[true,false,...]}
//! ```
//!
//! Floats are written in their shortest round-trip form, so a model
//! survives `encode → decode` bit for bit. The topology is not stored:
//! decoding rebuilds it from the positions and the range with
//! `Topology::from_positions`, exactly as `NetworkBuilder::build` does.
//! A malformed file is an error, never a panic.

use ballfit::metrics::{DetectionStats, HopHistogram};
use ballfit_geom::Vec3;
use ballfit_json::{arr, obj, JsonValue};
use ballfit_netgen::model::NetworkModel;
use ballfit_netgen::scenario::Scenario;
use ballfit_wsn::Topology;

/// Encodes `model` as a network file (one line).
pub fn encode_network(model: &NetworkModel) -> String {
    let doc = obj([
        ("scenario", model.scenario().name().into()),
        ("shape_seed", model.shape_seed().into()),
        ("radio_range", model.radio_range().into()),
        ("positions", arr(model.positions().iter().map(|p| p.to_array()))),
        ("is_surface", model.is_surface().into()),
    ]);
    format!("{doc}\n")
}

/// Decodes a network file written by [`encode_network`].
pub fn decode_network(text: &str) -> Result<NetworkModel, String> {
    let doc = ballfit_json::parse(text).map_err(|e| format!("network file: {e}"))?;
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("network file: missing \"{key}\""));
    let invalid = |what: &str| format!("network file: {what}");

    let name = field("scenario")?.as_str().ok_or_else(|| invalid("scenario must be a string"))?;
    let scenario =
        Scenario::by_name(name).ok_or_else(|| invalid(&format!("unknown scenario '{name}'")))?;
    let shape_seed = field("shape_seed")?
        .as_u64()
        .ok_or_else(|| invalid("shape_seed must be an unsigned integer"))?;
    let range = field("radio_range")?
        .as_f64()
        .filter(|&r| r > 0.0)
        .ok_or_else(|| invalid("radio_range must be a positive finite number"))?;
    let positions = field("positions")?
        .as_arr()
        .and_then(|items| items.iter().map(position).collect::<Option<Vec<Vec3>>>())
        .ok_or_else(|| invalid("positions must be [x, y, z] arrays of finite numbers"))?;
    let is_surface = field("is_surface")?
        .as_arr()
        .and_then(|items| items.iter().map(JsonValue::as_bool).collect::<Option<Vec<bool>>>())
        .ok_or_else(|| invalid("is_surface must be an array of booleans"))?;
    if is_surface.len() != positions.len() {
        return Err(invalid(&format!(
            "{} positions but {} is_surface flags",
            positions.len(),
            is_surface.len()
        )));
    }
    let topology = Topology::from_positions(&positions, range);
    Ok(NetworkModel::from_parts(scenario, shape_seed, positions, is_surface, range, topology))
}

fn position(value: &JsonValue) -> Option<Vec3> {
    match value.as_arr()? {
        [x, y, z] => Some(Vec3::new(x.as_f64()?, y.as_f64()?, z.as_f64()?)),
        _ => None,
    }
}

/// `stats` as one line of compact JSON, fields in declaration order.
pub fn stats_json(stats: &DetectionStats) -> String {
    let hops = |h: &HopHistogram| {
        obj([
            ("one", h.one.into()),
            ("two", h.two.into()),
            ("three", h.three.into()),
            ("beyond", h.beyond.into()),
        ])
    };
    obj([
        ("truth", stats.truth.into()),
        ("found", stats.found.into()),
        ("correct", stats.correct.into()),
        ("mistaken", stats.mistaken.into()),
        ("missing", stats.missing.into()),
        ("mistaken_hops", hops(&stats.mistaken_hops)),
        ("missing_hops", hops(&stats.missing_hops)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballfit_netgen::builder::NetworkBuilder;

    fn assert_same_model(back: &NetworkModel, model: &NetworkModel) {
        assert_eq!(back.scenario(), model.scenario());
        assert_eq!(back.shape_seed(), model.shape_seed());
        assert_eq!(back.radio_range().to_bits(), model.radio_range().to_bits());
        assert_eq!(back.is_surface(), model.is_surface());
        assert_eq!(back.len(), model.len());
        for (a, b) in back.positions().iter().zip(model.positions()) {
            for (x, y) in [(a.x, b.x), (a.y, b.y), (a.z, b.z)] {
                assert_eq!(x.to_bits(), y.to_bits(), "{x:e} vs {y:e}");
            }
        }
        assert_eq!(back.topology(), model.topology());
        // The reconstructed solid behaves identically.
        let p = Vec3::new(0.3, -0.2, 0.1);
        assert_eq!(back.shape().distance(p).to_bits(), model.shape().distance(p).to_bits());
    }

    #[test]
    fn network_file_round_trips_bit_for_bit() {
        let generated = NetworkBuilder::new(Scenario::SpaceOneHole)
            .surface_nodes(120)
            .interior_nodes(180)
            .target_degree(13.0)
            .require_connected(false)
            .seed(33)
            .build()
            .unwrap();
        let text = encode_network(&generated);
        assert_same_model(&decode_network(&text).unwrap(), &generated);

        // Signed zero, a subnormal and tiny/huge magnitudes survive too.
        let positions = vec![
            Vec3::new(-0.0, 0.0, 5e-324),
            Vec3::new(1e-300, -1e-300, 0.1),
            Vec3::new(0.3, f64::MIN_POSITIVE, -2.5),
            Vec3::new(1e300, -1e300, 0.30000000000000004),
        ];
        let range = 0.45;
        let topology = Topology::from_positions(&positions, range);
        let odd = NetworkModel::from_parts(
            Scenario::Torus,
            u64::MAX,
            positions,
            vec![true, false, false, true],
            range,
            topology,
        );
        let text = encode_network(&odd);
        let back = decode_network(&text).unwrap();
        assert_same_model(&back, &odd);
        assert!(back.positions()[0].x.is_sign_negative(), "-0.0 keeps its sign");
        assert_eq!(encode_network(&back), text, "re-encoding is byte-stable");
    }

    #[test]
    fn malformed_network_files_are_errors_not_panics() {
        let good = r#"{"scenario":"sphere","shape_seed":1,"radio_range":0.5,"positions":[[0,0,0],[0.25,0,0]],"is_surface":[true,false]}"#;
        assert!(decode_network(good).is_ok());
        for bad in [
            "",
            "{",
            "[1,]",
            r#"{"scenario":"sphere","shape_seed":1,"radio_range":0.5,"positions":[[0,0,0]],"is_surface":[true,false]}"#,
            r#"{"scenario":"sphere","shape_seed":1,"radio_range":0.5,"positions":[[0,0,0],[0,0]],"is_surface":[true,false]}"#,
            r#"{"scenario":"sphere","shape_seed":1,"radio_range":0.5,"positions":[[0,0,1e999],[0,0,0]],"is_surface":[true,false]}"#,
            r#"{"scenario":"sphere","shape_seed":1,"radio_range":1e999,"positions":[[0,0,0],[0,0,0]],"is_surface":[true,false]}"#,
            r#"{"scenario":"sphere","shape_seed":1,"radio_range":0,"positions":[[0,0,0],[0,0,0]],"is_surface":[true,false]}"#,
            r#"{"scenario":"sphere","shape_seed":1,"radio_range":-0.5,"positions":[[0,0,0],[0,0,0]],"is_surface":[true,false]}"#,
            r#"{"scenario":"dodecahedron","shape_seed":1,"radio_range":0.5,"positions":[[0,0,0],[0,0,0]],"is_surface":[true,false]}"#,
            r#"{"scenario":"sphere","shape_seed":-1,"radio_range":0.5,"positions":[[0,0,0],[0,0,0]],"is_surface":[true,false]}"#,
            r#"{"scenario":"sphere","shape_seed":1,"radio_range":0.5,"positions":[[0,0,0],[0,0,0]],"is_surface":[true,0]}"#,
            r#"{"scenario":"sphere","shape_seed":1,"radio_range":0.5,"positions":[[0,0,0],[0,0,0]]}"#,
        ] {
            assert!(decode_network(bad).is_err(), "must be rejected: {bad}");
        }
    }

    #[test]
    fn stats_json_keeps_field_names_and_order() {
        let stats = DetectionStats {
            truth: 5,
            found: 4,
            correct: 3,
            mistaken: 1,
            missing: 2,
            mistaken_hops: HopHistogram { one: 1, two: 0, three: 0, beyond: 0 },
            missing_hops: HopHistogram { one: 0, two: 1, three: 0, beyond: 1 },
        };
        let line = stats_json(&stats);
        assert_eq!(
            line,
            "{\"truth\":5,\"found\":4,\"correct\":3,\"mistaken\":1,\"missing\":2,\
             \"mistaken_hops\":{\"one\":1,\"two\":0,\"three\":0,\"beyond\":0},\
             \"missing_hops\":{\"one\":0,\"two\":1,\"three\":0,\"beyond\":1}}"
        );
        assert!(ballfit_json::parse(&line).is_ok());
    }
}
