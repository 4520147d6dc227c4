//! Renders paper-style SVG figures: the network model, the detected
//! boundary nodes, and the constructed triangular mesh (the three panels
//! of Figs. 6–10), for every gallery scenario.
//!
//! ```sh
//! cargo run --release -p ballfit-bench --bin render_figures
//! ```

use std::fs::File;
use std::io::BufWriter;

use ballfit::Pipeline;
use ballfit_bench::{gallery_network, results_dir, Args};
use ballfit_geom::svg::{OrthoCamera, SvgScene};
use ballfit_geom::Vec3;
use ballfit_netgen::scenario::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    Args::from_env("");
    let camera = OrthoCamera::isometric();
    for &scenario in &Scenario::PAPER_GALLERY {
        let model = gallery_network(scenario, 42);
        let result = Pipeline::paper(10, 7).run(&model);

        let interior: Vec<Vec3> = (0..model.len())
            .filter(|&i| !result.detection.boundary[i])
            .map(|i| model.positions()[i])
            .collect();
        let boundary: Vec<Vec3> =
            result.detection.boundary_indices().iter().map(|&i| model.positions()[i]).collect();

        // Panel (a): the raw network.
        let mut panel_a = SvgScene::new();
        panel_a.add_points(model.positions(), "#888888", 1.4);
        write_scene(&panel_a, &camera, &format!("fig_{}_a_network.svg", scenario.name()))?;

        // Panel (b): detected boundary nodes over faint interior.
        let mut panel_b = SvgScene::new();
        panel_b.add_points(&interior, "#cccccc", 1.0);
        panel_b.add_points(&boundary, "#d62728", 1.8);
        write_scene(&panel_b, &camera, &format!("fig_{}_b_boundary.svg", scenario.name()))?;

        // Panel (c): the triangular mesh(es).
        let mut panel_c = SvgScene::new();
        panel_c.add_points(&boundary, "#f2b6b6", 1.0);
        for surface in &result.surfaces {
            panel_c.add_mesh(&surface.mesh, "#1f77b4");
        }
        write_scene(&panel_c, &camera, &format!("fig_{}_c_mesh.svg", scenario.name()))?;

        println!(
            "{}: rendered 3 panels ({} nodes, {} boundary, {} meshes)",
            scenario.name(),
            model.len(),
            boundary.len(),
            result.surfaces.len()
        );
    }
    Ok(())
}

fn write_scene(
    scene: &SvgScene,
    camera: &OrthoCamera,
    name: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let path = results_dir().join(name);
    let w = BufWriter::new(File::create(&path)?);
    scene.render(w, camera, 640.0)?;
    Ok(())
}
